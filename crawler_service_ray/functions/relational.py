"""Generic relational operators, Ray-Data-first.

The engine's query surface (SURVEY.md §2 / §7.2 step 9): filter, project,
hash-aggregate with partial pre-aggregation, broadcast + partitioned hash
joins, sort/top-k, distinct, per-group top-k and time-window aggregates.
Each is expressed over ``ray.data.Dataset`` with vectorized Arrow/pandas
kernels inside ``map_batches`` — never per-row Python in the hot path.

Scale notes are inline per operator: what shuffles, what broadcasts, and
why; at 100 TB these are the only all-to-all exchanges a pipeline pays.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Mapping, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd


# Shuffle-heavy document pipelines size read blocks by bytes, not cpu
# fan-out (see read_table.bytes_per_block): Ray's default split of the
# small documents file into ~2x-cpu tiny blocks made every downstream
# groupby sort pay per-block overhead (measured 4-5x wall on
# dedup_minhash at sf0.1).
_DOC_BPB = 128 * 1024
# fact-table (lineitem/orders/events) shuffle pipelines: ~1 MB read
# blocks measured best (joins 2.4-4.6s -> 0.74s at sf0.1)
_FACT_BPB = 1024 * 1024

# Per-table default block sizing: any read that doesn't pick its own
# bytes_per_block gets the table's measured default (langid's 5000-doc
# read split into 64 blocks of 78 rows cost 0.56 s of task dispatch for
# 0.33 s of compute; 5 byte-sized blocks run the same UDF in ~0.15 s).
# Explicit values still win. Dimension tables: Ray's default split of a
# small read into 64 blocks made downstream groupby sorts pay per-block
# overhead; byte-sized blocks collapse that to the natural 1-2.
# `embeddings` intentionally NOT listed: its consumers are matmul-bound
# and want the cpu fan-out.
_DEFAULT_BPB = {
    "documents": _DOC_BPB,
    "events": _FACT_BPB,
    "lineitem": _FACT_BPB,
    "orders": _FACT_BPB,
    "customer": _FACT_BPB,
    "supplier": _FACT_BPB,
    "part": _FACT_BPB,
    "nation": _FACT_BPB,
    "region": _FACT_BPB,
}


def read_table(sf_dir: str, name: str, columns: Sequence[str] | None = None,
               bytes_per_block: int | None = None, **kw) -> rd.Dataset:
    """Column-pruned parquet read (prune at the read — never load columns a
    2-column transform doesn't need).

    ``bytes_per_block`` sizes read parallelism by DATA VOLUME instead of
    CPU fan-out: Ray's default splits a small file into ~num_cpus×2 tiny
    blocks, and every downstream groupby shuffle then pays per-block sort
    overhead — measured 4-5× wall on the shuffle-heavy dedup pipelines
    (64 blocks of 78 rows vs 4 right-sized blocks on a 3.5 MB table).
    At 100 TB the same rule yields the natural bytes-proportional block
    count; it only matters where Ray's cpu-derived split is FINER than
    the data justifies. ``None`` takes the table's ``_DEFAULT_BPB``."""
    if bytes_per_block is None:
        bytes_per_block = _DEFAULT_BPB.get(name)
    path = os.path.join(sf_dir, f"{name}.parquet")
    if bytes_per_block and "override_num_blocks" not in kw:
        import math

        kw["override_num_blocks"] = min(
            max(4, math.ceil(os.path.getsize(path) / bytes_per_block)),
            65536,
        )
    return rd.read_parquet(
        path,
        columns=list(columns) if columns else None,
        **kw,
    )


# ---------------------------------------------------------------------------
# aggregation with partial pre-aggregation (SURVEY.md §2.5 A1 pattern)
# ---------------------------------------------------------------------------


# grouped_agg's driver-collect merge is only right below ~10^6 partial
# rows (the documented key-cardinality rule); above it the merge
# auto-switches to the hash-partitioned path, sized so each merge task
# handles ~AUTO_MERGE_ROWS_PER_PART partial rows. Module-level so tests
# (and unusual deployments) can tune the bar.
AUTO_MERGE_THRESHOLD = 1_000_000
AUTO_MERGE_ROWS_PER_PART = 262_144


def _partial_agg(
    df: pd.DataFrame, keys: list[str], aggs: dict[str, tuple[str, str]]
) -> pd.DataFrame:
    """Per-batch combiner: one output row per key per batch."""
    plan: dict[str, list] = {}
    for out, (col, fn) in aggs.items():
        if fn == "mean":
            plan.setdefault(col, []).extend(["sum", "count"])
        elif fn in ("var", "std"):
            plan.setdefault(col, []).extend(["sum", "sumsq", "count"])
        elif fn == "count":
            plan.setdefault(keys[0], []).append("count")
        else:
            plan.setdefault(col, []).append(fn)
    sq_cols = [c for c, fns in plan.items() if "sumsq" in fns]
    if sq_cols:
        df = df.assign(**{f"__sq_{c}": df[c].astype("float64") ** 2
                          for c in sq_cols})
    g = df.groupby(keys, sort=False, observed=True)
    pieces = {}
    for col, fns in plan.items():
        for fn in set(fns):
            if fn == "sumsq":
                pieces[f"__p_sumsq_{col}"] = g[f"__sq_{col}"].agg("sum")
            else:
                pieces[f"__p_{fn}_{col}"] = g[col].agg(
                    "size" if fn == "count" else fn)
    out = pd.DataFrame(pieces).reset_index()
    return out


def merge_partials(
    df: pd.DataFrame, keys: list[str], aggs: dict[str, tuple[str, str]]
) -> pd.DataFrame:
    """:func:`grouped_agg`'s merge kernel: re-reduce :func:`_partial_agg`
    rows (sums/counts add, min/max reduce) to one row per key."""
    if any(k not in df.columns for k in keys):
        # an all-empty input collects to a column-less frame (Ray
        # drops the schema of 0-row object blocks); emit the output
        # header so downstream consumers see a uniform shape
        cols = {k: pd.Series(dtype=object) for k in keys}
        for out, (_, fn) in aggs.items():
            if fn == "count":
                cols[out] = pd.Series(dtype="int64")
            elif fn in ("sum", "mean", "var", "std"):
                cols[out] = pd.Series(dtype="float64")
            else:
                cols[out] = pd.Series(dtype=object)
        return pd.DataFrame(cols)
    plan = {}
    for c in df.columns:
        if c.startswith("__p_"):
            fn = c.split("_")[3]
            plan[c] = "sum" if fn in ("sum", "count", "sumsq") else fn
    g = df.groupby(keys, sort=False, observed=True).agg(plan).reset_index()
    cols = {k: g[k] for k in keys}
    for out, (col, fn) in aggs.items():
        if fn == "mean":
            cols[out] = g[f"__p_sum_{col}"] / g[f"__p_count_{col}"]
        elif fn in ("var", "std"):
            n = g[f"__p_count_{col}"].to_numpy(dtype="float64")
            s = g[f"__p_sum_{col}"].to_numpy(dtype="float64")
            ss = g[f"__p_sumsq_{col}"].to_numpy(dtype="float64")
            # sample variance is NULL for n<2 (SQL var_samp semantics);
            # clip tiny negative cancellation residue before sqrt
            v = np.where(
                n > 1,
                np.maximum(ss - s * s / np.maximum(n, 1), 0.0)
                / np.maximum(n - 1, 1),
                np.nan,
            )
            cols[out] = np.sqrt(v) if fn == "std" else v
        elif fn == "count":
            cols[out] = g[f"__p_count_{keys[0]}"].astype("int64")
        else:
            cols[out] = g[f"__p_{fn}_{col}"]
    return pd.DataFrame(cols)


def grouped_agg(
    ds: rd.Dataset,
    keys: Sequence[str],
    aggs: Mapping[str, tuple[str, str]],
    batch_size: int = 131072,
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """groupby-aggregate = vectorized per-batch partials (map_batches) →
    vectorized merge of the partials.

    ``aggs``: out_name -> (column, fn) with fn ∈
    sum/count/min/max/mean/var/std (var/std are SAMPLE semantics,
    ddof=1, via mergeable sum/sumsq/count partials — the textbook
    one-pass form; fine for money/metric magnitudes, but subject to
    cancellation when |mean| >> std, so round results before comparing
    engines). The pre-aggregation bounds what leaves the map side to
    O(distinct keys
    × blocks) rows regardless of input size. The merge has two shapes:

    * ``merge_partitions=None`` (default): the partial rows (≤ distinct
      keys × read blocks) are collected and merged with ONE pandas
      groupby, returned as a single-block dataset. Right for low/medium
      key cardinality (≲10^6 distinct keys) — measured here, Ray 2.49's
      sort-based ``Aggregate`` costs ~2 ms/row on multi-column keys and
      even a ``repartition(1)`` AllToAll of 42 partial rows costs
      ~0.7 s of fixed exchange setup, ~10× this collect+merge.
    * ``merge_partitions=P`` (≥2): hash-partitioned merge via
      ``grouped_apply`` — the partials shuffle by key hash and P
      parallel tasks each merge their key range. Use when distinct-key
      count scales with the fact table (e.g. grouping by order key),
      where a single-task merge becomes the bottleneck at cluster scale.

    The ≲10^6-key rule is SELF-ENFORCING: on the default path the
    partials materialize first and their row count (known for free from
    block metadata) is checked against ``AUTO_MERGE_THRESHOLD`` — above
    it the merge auto-switches to the partitioned path, sized by the
    measured partial count, with a loud log line. A call site that
    misjudges its key cardinality degrades to the correct distributed
    merge instead of a driver-side materialization.
    """
    keys = list(keys)
    aggs = dict(aggs)
    part = ds.map_batches(
        partial(_partial_agg, keys=keys, aggs=aggs),
        batch_format="pandas",
        batch_size=batch_size,
    )

    merge = partial(merge_partials, keys=keys, aggs=aggs)
    if merge_partitions and merge_partitions > 1:
        return grouped_apply(part, keys, merge,
                             num_partitions=merge_partitions)
    part = part.materialize()
    n_partials = part.count()
    if n_partials > AUTO_MERGE_THRESHOLD:
        num = max(2, min(512, -(-n_partials // AUTO_MERGE_ROWS_PER_PART)))
        import logging

        logging.getLogger(__name__).warning(
            "grouped_agg: %d partial rows exceed the driver-merge "
            "threshold (%d) — auto-switching to a %d-partition merge; "
            "pass merge_partitions explicitly at this call site",
            n_partials, AUTO_MERGE_THRESHOLD, num)
        return grouped_apply(part, keys, merge, num_partitions=num)
    return rd.from_pandas(merge(part.to_pandas()))


# ---------------------------------------------------------------------------
# joins (SURVEY.md §2.4)
# ---------------------------------------------------------------------------

def broadcast_join(
    ds: rd.Dataset,
    small: pa.Table | pd.DataFrame,
    on: Sequence[str] | str,
    how: str = "inner",
    columns: Sequence[str] | None = None,
) -> rd.Dataset:
    """Broadcast hash join: the small side is ``ray.put`` once and read by
    every task; the big side streams — NO shuffle (J1/J4 analog,
    `/root/reference/application.py:228-237` builds the same small-side map
    per message).

    Runs as plain TASKS, not an actor pool: the stage has no real
    per-worker state to amortize (the broadcast table is plasma-backed
    and zero-copy), tasks skip the pool's spin-up latency (measured ~2 s
    on small inputs), and there is no actor restart to worry about. A
    per-worker-process cache keyed by the ref keeps the resolved table
    warm across batches on the same worker.
    """
    if isinstance(small, pa.Table):
        small = small.to_pandas()
    if columns:
        small = small[list(columns)]
    ref = ray.put(small)
    on = [on] if isinstance(on, str) else list(on)
    refs = [ref]  # nested so Ray ships the ref, not the resolved value

    def join_batch(df: pd.DataFrame) -> pd.DataFrame:
        return df.merge(resolve_broadcast(refs[0]), on=on, how=how)

    return ds.map_batches(join_batch, batch_format="pandas")


# Per-worker-process LRU of resolved broadcast objects. Bounded: every
# broadcast op ray.puts a fresh object, so an unbounded cache would
# retain one deserialized copy per past execution in every worker of a
# long-lived session. Eight entries covers the live pipelines of a run;
# older entries drop and would simply re-resolve. Mutations hold a lock:
# map tasks are single-threaded per worker today, but the helper is
# shared by every broadcast stage and threaded actors would otherwise
# race the pop/re-insert/evict sequence.
_PROC_BCAST: "dict[str, object]" = {}
_PROC_BCAST_MAX = 8
_PROC_BCAST_LOCK = __import__("threading").Lock()


def resolve_broadcast(ref):
    """ray.get a broadcast ref with a small per-worker LRU (shared by
    every task-based broadcast stage — joins, ANN scorers)."""
    key = ref.hex()
    with _PROC_BCAST_LOCK:
        v = _PROC_BCAST.pop(key, None)
    if v is None:
        v = ray.get(ref)
    with _PROC_BCAST_LOCK:
        _PROC_BCAST[key] = v  # re-insert = move to MRU position
        while len(_PROC_BCAST) > _PROC_BCAST_MAX:
            _PROC_BCAST.pop(next(iter(_PROC_BCAST)))
    return v


def bucketed_hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: Sequence[str] | str,
    num_buckets: int = 32,
    how: str = "inner",
    salt: int | None = None,
) -> rd.Dataset:
    """Explicit partitioned hash join, portable across Ray versions: tag
    each side, bucket rows by key hash, co-locate buckets with one
    ``groupby("__bucket")`` shuffle, and pandas-merge the two sides inside
    each bucket.

    Skew: with ``salt=k`` each LEFT row additionally gets a deterministic
    salt in [0, k) and the RIGHT side is replicated k× (once per salt
    value); bucketing then hashes (key, salt), so a hot key's left rows
    spread over up to k buckets instead of pinning one worker, at the
    cost of shipping the right side k× — use when one key's left rows
    exceed a worker's memory and the right side is the smaller input.
    Each left row meets exactly one copy of its key's right rows, so
    inner/left results are identical to the unsalted join; ``salt``
    requires ``how`` ∈ {inner, left} (right/outer would duplicate
    unmatched right rows across salt copies).

    Ray ≥2.47 also ships a native hash ``Dataset.join`` (used by
    ``native_join``); this explicit form documents the partitioning and
    stays available if the API shifts.
    """
    on = [on] if isinstance(on, str) else list(on)
    if salt is not None and how not in ("inner", "left"):
        raise ValueError("salt requires how='inner' or 'left'")
    left_cols = list(left.schema().names)
    right_cols = list(right.schema().names)

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        h = _key_hash(df, on)
        if salt:
            # spread a hot key's rows across salt sub-buckets; the spread
            # must be deterministic (content-derived, not positional) so
            # retried tasks bucket identically
            s = pd.util.hash_array(np.arange(len(df), dtype=np.uint64))
            s = (s ^ h) % np.uint64(salt)
            h = h ^ (s * np.uint64(0x9E3779B97F4A7C15))
        return df.assign(__bucket=h % num_buckets, __side="l")

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        h = _key_hash(df, on)
        if salt:
            # replicate each right row once per salt value
            rep = np.repeat(np.arange(len(df)), salt)
            df = df.iloc[rep].reset_index(drop=True)
            s = np.tile(np.arange(salt, dtype=np.uint64), len(h))
            h = np.repeat(h, salt) ^ (s * np.uint64(0x9E3779B97F4A7C15))
        return df.assign(__bucket=h % num_buckets, __side="r")

    lt = left.map_batches(tag_left, batch_format="pandas")
    rt = right.map_batches(tag_right, batch_format="pandas")
    # union pads each side's missing columns with nulls; the bucket fn
    # re-projects each side to its own columns before the local merge
    both = lt.union(rt)

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # union normally pads each side's missing columns with nulls,
        # but a bucket fed entirely from ONE input block can arrive
        # with only that side's schema (seen with a sparse right side
        # whose rows hash into few buckets) — pad the absent columns
        # before re-projecting
        for c in left_cols + right_cols:
            if c not in g.columns:
                g[c] = np.nan
        l = g.loc[g["__side"] == "l", left_cols]
        r = g.loc[g["__side"] == "r", right_cols]
        if how in ("inner", "left"):
            # null right keys never match under SQL equality — drop before
            # the dtype cast (a null widened to float64 NaN can't cast back
            # to int64); keep them for right/outer where they must surface
            r = r.dropna(subset=on)
        for c in on:  # union may have widened key dtypes via null padding
            if r[c].notna().all():
                r[c] = r[c].astype(l[c].dtype)
            else:  # right/outer with null keys: widen left instead
                l = l.assign(**{c: l[c].astype(r[c].dtype)})
        m = l.merge(r, on=on, how=how)
        if len(m) == 0:
            # Ray's block-size estimator can't sample a 0-row
            # string/object column (np.vectorize without otypes) and
            # logs an error per empty bucket; categorical dtype skips
            # the sampling path and is equivalent for an empty block
            m = m.astype({c: "category" for c in m.columns
                          if m[c].dtype == object
                          or str(m[c].dtype).startswith("string")})
        return m

    return both.groupby("__bucket").map_groups(
        join_bucket, batch_format="pandas"
    )


def native_join(
    left: rd.Dataset, right: rd.Dataset, on: Sequence[str] | str,
    right_on: Sequence[str] | str | None = None,
    num_partitions: int = 16, join_type: str = "inner",
) -> rd.Dataset:
    on = (on,) if isinstance(on, str) else tuple(on)
    if right_on is not None:
        right_on = (right_on,) if isinstance(right_on, str) else tuple(right_on)
    return left.join(
        right, join_type=join_type, num_partitions=num_partitions, on=on,
        right_on=right_on,
    )


# ---------------------------------------------------------------------------
# sort / top-k / distinct / per-group top-k / windows
# ---------------------------------------------------------------------------


def cap_per_group(
    ds: rd.Dataset,
    keys: Sequence[str],
    id_col: str,
    n: int,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-group retention cap (the web-curation "at most N docs per
    domain" pass): keep the n rows of each group ranked first by a
    deterministic Knuth multiplicative hash of ``id_col`` (ties broken
    by id) — a parallelism-invariant pseudo-random cap, unlike
    `topk_per_group`'s value ordering. One key-hash shuffle; within a
    partition one stable sort + cumcount, no per-group Python.

    Precondition: ``id_col`` values must be nonnegative and < 2^63.
    The SQL-oracle twin hashes with ``id % 4294967296`` whose sign
    semantics (C-style, sign of dividend) differ from numpy's wrapping
    uint64 cast for negative ids, and the 2654435761 multiply overflows
    BIGINT for residues ≥ ~3.47e9 — both engines agree only on
    nonnegative ids, which every id column in this engine satisfies
    (synthetic TPC-H keys and URL hashes are unsigned by construction)."""
    keys = list(keys)

    def cap(part: pd.DataFrame) -> pd.DataFrame:
        ids = part[id_col].to_numpy().astype(np.uint64)
        h = (ids % np.uint64(2**32)) * np.uint64(2654435761) % np.uint64(2**32)
        part = part.assign(__hk=h.astype(np.int64))
        part = part.sort_values(keys + ["__hk", id_col], kind="mergesort")
        keep = part.groupby(keys, sort=False).cumcount() < n
        return part[keep].drop(columns="__hk")

    return grouped_apply(ds, keys, cap, num_partitions=num_partitions)


def semi_anti_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: Sequence[str] | str,
    anti: bool = False,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Distributed semi/anti join (SURVEY.md §2.4 J3 relational form —
    the crawl's seen anti-join generalized): both sides co-partition by
    key hash (right side ships only its DISTINCT key columns, pre-deduped
    per batch), and each partition keeps the left rows with (semi) or
    without (anti) a right match via one vectorized merge."""
    on = [on] if isinstance(on, str) else list(on)
    lcols = list(left.schema().names)

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__side="l")

    def keys_right(df: pd.DataFrame) -> pd.DataFrame:
        return df[on].drop_duplicates().assign(__side="r")

    both = left.map_batches(tag_left, batch_format="pandas").union(
        right.map_batches(keys_right, batch_format="pandas")
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        l = g.loc[g["__side"] == "l", lcols]
        # Null right-side keys never match (SQL IN/NOT-IN semantics) —
        # drop them BEFORE the dtype cast: a null widened to float64 NaN
        # cannot cast back to the left side's int64 and would crash the
        # partition task instead of simply not matching.
        rk = g.loc[g["__side"] == "r", on].dropna(subset=on).drop_duplicates()
        if l.empty:
            return l
        for c in on:  # union may widen key dtypes via null padding
            rk[c] = rk[c].astype(l[c].dtype)
        m = l.merge(rk, on=on, how="left", indicator=True)
        keep = m["_merge"] == ("left_only" if anti else "both")
        return m.loc[keep, lcols]

    return grouped_apply(both, on, per_partition,
                         num_partitions=num_partitions)


def windowed_cumsum(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    out_name: str = "cum",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Cumulative sum per key in (ts, tiebreak) order — the ``sum() OVER
    (PARTITION BY key ORDER BY ts, tiebreak ROWS UNBOUNDED PRECEDING)``
    window function. Hash-partition by key, ONE vectorized sort + groupby
    cumsum per partition; the explicit tiebreak column makes the running
    order (and therefore every float sum) deterministic."""

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tiebreak], kind="mergesort")
        return g.assign(
            **{out_name: g.groupby(key, sort=False)[val_col].cumsum()}
        )

    return grouped_apply(ds, [key], per_partition,
                         num_partitions=num_partitions)


def topk(
    ds: rd.Dataset,
    by: str | Sequence[str],
    k: int,
    descending: bool | Sequence[bool] = True,
) -> rd.Dataset:
    """Global top-k: per-block truncation inside map_batches first, then
    one coalesced local sort over the surviving ≤ k×blocks rows — the
    full-sort shuffle is avoided (SURVEY.md §2.6), and so is Ray's Sort
    operator for the tiny tail (its AllToAll setup cost ~3 s at 64 input
    blocks dwarfed the 640-row sort it performed — measured; a
    repartition(1) of the truncated rows is 3-4× cheaper). Multi-key
    ``by`` gives deterministic tie-breaks."""
    by = [by] if isinstance(by, str) else list(by)
    desc = [descending] * len(by) if isinstance(descending, bool) else list(descending)
    asc = [not d for d in desc]

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=asc, kind="mergesort").head(k)

    pruned = ds.map_batches(local_top, batch_format="pandas")
    return pruned.repartition(1).map_batches(
        local_top, batch_format="pandas", batch_size=None
    )


def topk_per_group(
    ds: rd.Dataset,
    keys: Sequence[str],
    by: str | Sequence[str],
    k: int,
    descending: bool | Sequence[bool] = True,
) -> rd.Dataset:
    """Per-group top-k: per-batch pre-truncation (≤k rows per group per
    block survive) then groupby.map_groups for the exact answer."""
    keys = list(keys)
    by = [by] if isinstance(by, str) else list(by)
    desc = [descending] * len(by) if isinstance(descending, bool) else list(descending)
    asc = [not d for d in desc]

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(by, ascending=asc, kind="mergesort")
        return g.groupby(keys, sort=False, observed=True).head(k)

    def exact(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(by, ascending=asc, kind="mergesort").head(k)

    return (
        ds.map_batches(local_top, batch_format="pandas")
        .groupby(keys)
        .map_groups(exact, batch_format="pandas")
    )


def grouped_rank(
    ds: rd.Dataset,
    keys: Sequence[str],
    by: str | Sequence[str],
    out_name: str = "rank",
    descending: bool | Sequence[bool] = True,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-group row_number() — the full-output window-rank operator
    (``topk_per_group`` truncates; this ranks EVERY row). One
    hash-partition shuffle by the group keys, then a vectorized
    sort + ``groupby.cumcount`` per partition — no per-group Python
    call. ``by`` should include a tiebreaker column for determinism
    (SQL ``row_number() OVER (PARTITION BY keys ORDER BY by)``
    parity)."""
    keys = list(keys)
    by = [by] if isinstance(by, str) else list(by)
    desc = ([descending] * len(by) if isinstance(descending, bool)
            else list(descending))
    asc = [not d for d in desc]

    def rank_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(by, ascending=asc, kind="mergesort")
        g[out_name] = (
            g.groupby(keys, sort=False, observed=True).cumcount() + 1
        ).astype("int64")
        return g

    return grouped_apply(ds, keys, rank_part,
                         num_partitions=num_partitions)


def grouped_shift(
    ds: rd.Dataset,
    keys: Sequence[str],
    order_by: str | Sequence[str],
    col: str,
    periods: int = 1,
    out_name: str = "lag",
    num_partitions: int = 32,
) -> rd.Dataset:
    """LAG (``periods``>0) / LEAD (<0) window function: per-key shift of
    ``col`` in ``order_by`` order. Same shape as every window op here —
    ONE key-hash shuffle co-locates each key's rows, then a vectorized
    sort + ``groupby.shift`` per partition (no per-group Python).
    ``order_by`` should be unique per key for deterministic frames.
    Missing frame edges become NaN/NaT (SQL NULL)."""
    keys = list(keys)
    order_by = ([order_by] if isinstance(order_by, str)
                else list(order_by))

    def shift_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order_by, kind="mergesort")
        g[out_name] = g.groupby(keys, sort=False, observed=True)[
            col].shift(periods)
        return g

    return grouped_apply(ds, keys, shift_part,
                         num_partitions=num_partitions)


def ntile_in_group(
    ds: rd.Dataset,
    keys: Sequence[str],
    by: str | Sequence[str],
    n: int,
    out_name: str = "tile",
    descending: bool | Sequence[bool] = False,
    num_partitions: int = 32,
) -> rd.Dataset:
    """SQL ``ntile(n) OVER (PARTITION BY keys ORDER BY by)``: rows of
    each key split into n maximally-even buckets, earlier buckets taking
    the remainder rows. One key-hash shuffle, then a vectorized
    cumcount + closed-form bucket assignment per partition (standard
    SQL ntile: with c rows, the first c % n tiles hold c//n + 1 rows)."""
    keys = list(keys)
    by = [by] if isinstance(by, str) else list(by)
    desc = ([descending] * len(by) if isinstance(descending, bool)
            else list(descending))
    asc = [not d for d in desc]

    def tile_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(by, ascending=asc, kind="mergesort")
        grp = g.groupby(keys, sort=False, observed=True)
        rn = grp.cumcount().to_numpy()
        cnt = grp[by[0]].transform("size").to_numpy()
        base, rem = cnt // n, cnt % n
        big = rem * (base + 1)  # rows covered by the (base+1)-sized tiles
        in_big = rn < big
        tile = np.where(
            in_big,
            rn // np.maximum(base + 1, 1),
            rem + (rn - big) // np.maximum(base, 1),
        )
        g[out_name] = (tile + 1).astype("int64")
        return g

    return grouped_apply(ds, keys, tile_part,
                         num_partitions=num_partitions)


def string_agg_per_group(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    sep: str = ",",
    out_name: str = "agg",
    num_partitions: int = 32,
) -> rd.Dataset:
    """SQL ``string_agg(col, sep ORDER BY col)`` per key: one key-hash
    shuffle, then ONE vectorized sort + ``groupby.agg(join)`` per
    partition. Ordering by the aggregated value itself makes the result
    deterministic regardless of block layout. The concatenated string is
    O(group size) — callers cap group width, not this operator."""
    keys = list(keys)

    def concat_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(col, kind="mergesort")
        out = (
            g.groupby(keys, sort=False, observed=True)[col]
            .agg(sep.join)
            .reset_index(name=out_name)
        )
        return out

    return grouped_apply(ds, keys, concat_part,
                         num_partitions=num_partitions)


def grouped_zscore(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    out_name: str = "zscore",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Per-key standardization ``(x - mean) / stddev_pop`` WITHOUT
    shuffling the fact rows: the per-key (sum, sum-of-squares, count)
    stats reduce through ``grouped_agg`` partials to one tiny table,
    which broadcasts once (``ray.put``) and every batch maps against it
    — the window-function answer at aggregation cost. Driver/broadcast
    state is O(distinct keys); for key sets that scale with the fact
    table use ``grouped_rank``-style full shuffles instead. Zero
    variance yields NaN (SQL NULL via stddev_pop=0 division)."""
    import ray

    keys = list(keys)

    sq = ds.map_batches(
        lambda df: df.assign(__sq=df[col].to_numpy() ** 2),
        batch_format="pandas",
    )
    stats = grouped_agg(
        sq, keys,
        {"__s": (col, "sum"), "__ss": ("__sq", "sum"),
         "__n": (col, "count")},
        merge_partitions=merge_partitions,
    ).to_pandas()
    mean = stats["__s"] / stats["__n"]
    var = stats["__ss"] / stats["__n"] - mean ** 2
    sd = np.sqrt(np.maximum(var, 0.0))
    lookup = stats[keys].assign(__mean=mean,
                                __sd=np.where(sd > 0, sd, np.nan))
    ref = ray.put(lookup)

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        lk = resolve_broadcast(ref)
        m = df.merge(lk, on=keys, how="left")
        m[out_name] = (m[col] - m["__mean"]) / m["__sd"]
        return m.drop(columns=["__mean", "__sd"])

    return ds.map_batches(apply, batch_format="pandas")


def pivot_count(
    ds: rd.Dataset,
    keys: Sequence[str],
    pivot_col: str,
    categories: Sequence[str],
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """PIVOT (long → wide counts): one output column per category of
    ``pivot_col``, counting rows per key. The category set must be
    EXPLICIT and bounded — that is what makes pivot scale-safe (the
    output schema is fixed up front; a data-derived column set would be
    a two-pass schema negotiation). Per-batch conditional-count
    partials shrink every block to one row per key before the exchange;
    the merge is a plain ``grouped_agg`` sum per category column."""
    keys = list(keys)
    cats = list(categories)
    names = [f"n_{c}" for c in cats]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df[keys].copy()
        pv = df[pivot_col].to_numpy()
        for c, name in zip(cats, names):
            out[name] = (pv == c).astype("int64")
        return out.groupby(keys, sort=False, observed=True).sum(
        ).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas")
    return grouped_agg(
        partials, keys, {n: (n, "sum") for n in names},
        merge_partitions=merge_partitions,
    )


def range_join_broadcast(
    ds: rd.Dataset,
    intervals: pd.DataFrame,
    value_col: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    how: str = "inner",
) -> rd.Dataset:
    """Non-equi RANGE join: attach interval-table attributes to every
    row whose ``value_col`` falls in [lo, hi) — the banding/bucketing
    join (price bands, latency SLAs, date windows). The interval table
    is the classic SMALL side (human-defined bands), so it broadcasts
    once (``ray.put`` + per-worker LRU) and each batch resolves
    membership with ONE ``np.searchsorted`` against the sorted lower
    bounds — no per-row predicate evaluation, no shuffle. Intervals
    must be non-overlapping (validated); gaps are allowed (rows in a
    gap drop under ``how='inner'``, keep null attributes under
    ``'left'``).

    Scale path for LARGE×LARGE range joins (both sides too big to
    broadcast): replicate each interval to every coarse value bucket it
    overlaps, hash-partition both sides by bucket, and run this same
    searchsorted merge per partition — the bin-replication factor is
    interval_span/bucket_width, chosen so partitions fit a task.
    """
    iv = intervals.sort_values(lo_col).reset_index(drop=True)
    lo = iv[lo_col].to_numpy()
    hi = iv[hi_col].to_numpy()
    if (hi[:-1] > lo[1:]).any() or (hi <= lo).any():
        raise ValueError("intervals must be non-overlapping with lo < hi")
    payload = iv.drop(columns=[lo_col, hi_col])
    ref = ray.put((lo, hi, payload))
    refs = [ref]

    def join_batch(df: pd.DataFrame) -> pd.DataFrame:
        lo_, hi_, pay = resolve_broadcast(refs[0])
        v = df[value_col].to_numpy()
        idx = np.searchsorted(lo_, v, side="right") - 1
        ok = (idx >= 0) & (v < hi_[np.maximum(idx, 0)])
        if how == "inner":
            out = df[ok].reset_index(drop=True)
            attach = pay.iloc[idx[ok]].reset_index(drop=True)
            return pd.concat([out, attach], axis=1)
        attach = pay.iloc[np.maximum(idx, 0)].reset_index(drop=True)
        attach = attach.where(pd.Series(ok, index=attach.index), other=pd.NA)
        return pd.concat([df.reset_index(drop=True), attach], axis=1)

    return ds.map_batches(join_batch, batch_format="pandas")


def range_join_partitioned(
    ds: rd.Dataset,
    intervals: rd.Dataset,
    value_col: str,
    lo_col: str = "lo",
    hi_col: str = "hi",
    bucket_width: float = None,
    how: str = "inner",
    num_partitions: int = 32,
) -> rd.Dataset:
    """LARGE×LARGE non-equi range join — the bin-replication scale path
    `range_join_broadcast`'s docstring describes, for when the interval
    side is itself corpus-scale (genome windows, per-entity time bands)
    and cannot broadcast.

    Shape: each interval [lo, hi) is replicated to every coarse value
    bucket of width ``bucket_width`` it overlaps (replication factor
    ceil(span/width), chosen by the caller so a bucket's rows fit a
    task); probe rows land in exactly ONE bucket (floor(value/width));
    buckets hash to ``num_partitions`` partitions and ONE tagged-union
    shuffle co-locates each partition's intervals with its probe rows.
    Inside a partition a single sorted-lo ``searchsorted`` over ALL its
    intervals resolves every probe row at once (no per-bucket Python):
    replica duplicates are dropped first, and because intervals are
    globally non-overlapping the rightmost lo ≤ value inside the
    partition is exactly the candidate the global sorted set would
    yield — a probe row's containing interval is guaranteed co-located
    via its bucket. Nothing is held on the driver, neither side
    broadcasts.

    Intervals must be globally non-overlapping with lo < hi — validated
    COMPLETELY despite the distribution: two overlapping intervals
    always share at least one bucket (hence one partition), and in a
    lo-sorted set any overlap implies an ADJACENT overlap, so the
    per-partition adjacent check sees every violation. Gaps are allowed
    (``how='inner'`` drops gap rows; ``'left'`` keeps them with null
    interval attributes — sound because each probe row exists exactly
    once, in its own bucket's partition).

    Note: partitions mixing both sides null-pad each side's missing
    columns, so integer probe columns may surface as float64 in the
    output — cast back downstream where exact dtypes matter (same
    caveat as ``bucketed_hash_join``).
    """
    if bucket_width is None or bucket_width <= 0:
        raise ValueError("bucket_width must be a positive number")
    if how not in ("inner", "left"):
        raise ValueError("how must be 'inner' or 'left'")
    probe_cols = list(ds.schema().names)
    iv_cols = list(intervals.schema().names)
    payload_cols = [c for c in iv_cols if c not in (lo_col, hi_col)]
    W = float(bucket_width)

    def part_of(bucket: np.ndarray) -> np.ndarray:
        # splitmix-style bucket mix so adjacent buckets spread
        h = bucket.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return (h >> np.uint64(33)).astype(np.int64) % num_partitions

    def tag_probe(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value_col].to_numpy(dtype="float64")
        b = np.floor(v / W).astype(np.int64)
        return df.assign(__gp=part_of(b), __side="p")

    def tag_intervals(df: pd.DataFrame) -> pd.DataFrame:
        lo = df[lo_col].to_numpy(dtype="float64")
        hi = df[hi_col].to_numpy(dtype="float64")
        if (hi <= lo).any():
            raise ValueError("intervals must satisfy lo < hi")
        b0 = np.floor(lo / W).astype(np.int64)
        # last bucket holding values < hi: ceil(hi/W)-1 (exact-boundary
        # his don't spill an extra empty replica)
        b1 = (np.ceil(hi / W) - 1).astype(np.int64)
        rep = b1 - b0 + 1
        idx = np.repeat(np.arange(len(df)), rep)
        out = df.iloc[idx].reset_index(drop=True)
        offs = np.arange(int(rep.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(rep) - rep, rep)
        gp = part_of(np.repeat(b0, rep) + offs)
        out = out.assign(__gp=gp, __side="i")
        # an interval whose replicas hash to the same partition needs
        # only one copy there
        return out.drop_duplicates(subset=[lo_col, hi_col, "__gp"])

    both = ds.map_batches(tag_probe, batch_format="pandas").union(
        intervals.map_batches(tag_intervals, batch_format="pandas"))

    def join_partition(g: pd.DataFrame) -> pd.DataFrame:
        # a partition holding only ONE side arrives with that side's
        # columns alone (schema unification happens via pandas-concat
        # padding only when a partition mixes sides) — pad the absent
        # side explicitly so every partition takes one code path
        for c in iv_cols + probe_cols:
            if c not in g.columns:
                g = g.assign(**{c: np.full(len(g), np.nan)})
        p = g.loc[g["__side"] == "p", probe_cols].reset_index(drop=True)
        iv = g.loc[g["__side"] == "i", iv_cols]
        # replicas of one interval may arrive from different blocks
        iv = iv.drop_duplicates(subset=[lo_col, hi_col])
        iv = iv.sort_values(lo_col, kind="mergesort").reset_index(drop=True)
        lo_ = iv[lo_col].to_numpy(dtype="float64")
        hi_ = iv[hi_col].to_numpy(dtype="float64")
        if len(iv) > 1 and (hi_[:-1] > lo_[1:]).any():
            raise ValueError("intervals must be non-overlapping")
        pay = iv[payload_cols]
        if len(iv) == 0:
            ok = np.zeros(len(p), dtype=bool)
            idx = np.zeros(len(p), dtype=np.int64)
        else:
            v = p[value_col].to_numpy(dtype="float64")
            idx = np.searchsorted(lo_, v, side="right") - 1
            ok = (idx >= 0) & (v < hi_[np.maximum(idx, 0)])
        def null_payload(nrows: int) -> pd.DataFrame:
            # padded payload dtypes may be float64 (which rejects pd.NA)
            # — use NaN where the dtype can hold it, object-None else
            cols = {}
            for c in payload_cols:
                dt = g[c].dtype
                try:
                    cols[c] = pd.Series([np.nan] * nrows, dtype=dt) \
                        if nrows else pd.Series([], dtype=dt)
                except (TypeError, ValueError):
                    cols[c] = pd.Series([None] * nrows, dtype="object")
            return pd.DataFrame(cols)

        if how == "inner":
            out = p[ok].reset_index(drop=True)
            attach = pay.iloc[idx[ok]].reset_index(drop=True) if len(iv) \
                else null_payload(0)
            return pd.concat([out, attach], axis=1)
        if len(iv):
            attach = pay.iloc[np.maximum(idx, 0)].reset_index(drop=True)
            attach = attach.where(
                pd.Series(ok, index=attach.index), other=pd.NA)
        else:
            attach = null_payload(len(p))
        return pd.concat([p, attach], axis=1)

    return both.groupby("__gp").map_groups(
        join_partition, batch_format="pandas")


def grouped_mode(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    out_name: str = "mode",
    merge_partitions: int | None = None,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Per-group mode (most frequent value; ties break on the SMALLEST
    value for determinism). Shape: per-batch (keys, col) partial counts
    shrink blocks before any exchange (the wordcount pattern), a
    ``grouped_agg`` sum-merge, then one key-hash partition pass picks
    each group's (max count, min value) — never a Python call per
    group."""
    keys = list(keys)

    def pick(part: pd.DataFrame) -> pd.DataFrame:
        g = part.sort_values(
            ["__cnt", col], ascending=[False, True], kind="mergesort"
        ).groupby(keys, sort=False, observed=True).head(1)
        return g.rename(columns={col: out_name}).drop(columns="__cnt")

    counts = grouped_agg(
        ds.map_batches(
            lambda df: df.groupby(keys + [col], sort=False, observed=True)
            .size().reset_index(name="__cnt"),
            batch_format="pandas",
        ),
        keys + [col], {"__cnt": ("__cnt", "sum")},
        merge_partitions=merge_partitions,
    )
    return grouped_apply(counts, keys, pick, num_partitions=num_partitions)


def moving_avg(
    ds: rd.Dataset,
    keys: Sequence[str],
    order_by: str | Sequence[str],
    col: str,
    window: int,
    out_name: str = "moving_avg",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-key trailing moving average over the last ``window`` rows in
    ``order_by`` order — the ROWS-frame windowed aggregate (SQL
    ``AVG(col) OVER (PARTITION BY keys ORDER BY order_by ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)``). Same shape as
    ``windowed_cumsum``: one hash-partition shuffle co-locates each
    key's rows, then a vectorized sort + ``groupby.rolling`` per
    partition. ``order_by`` should be unique per key for deterministic
    frames."""
    keys = list(keys)
    order_by = ([order_by] if isinstance(order_by, str)
                else list(order_by))

    def roll_part(g: pd.DataFrame) -> pd.DataFrame:
        # partition frames can arrive with repeating index labels
        # (concatenated batches); the rolling result comes back in
        # GROUP order, so the assignment below aligns by label and
        # raises "cannot reindex on an axis with duplicate labels"
        # unless the index is unique
        g = g.sort_values(order_by, kind="mergesort").reset_index(
            drop=True)
        r = (
            g.groupby(keys, sort=False, observed=True)[col]
            .rolling(window, min_periods=1)
            .mean()
        )
        # rolling returns (key..., original_index)-indexed rows in GROUP
        # order — drop the key levels and let pandas align the assignment
        # on the surviving original index
        g[out_name] = r.droplevel(
            list(range(len(keys)))
        ).astype("float64")
        return g

    return grouped_apply(ds, keys, roll_part,
                         num_partitions=num_partitions)


def distinct(
    ds: rd.Dataset,
    columns: Sequence[str],
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Distinct rows over ``columns``: per-batch dedup first (bounds what
    leaves the map side to distinct-per-block), then either a coalesced
    final dedup (default — right while the distinct set fits one task)
    or, with ``merge_partitions=P``, a hash-partitioned final dedup for
    key sets that scale with the fact table — same reasoning as
    ``grouped_agg``'s merge."""
    columns = list(columns)

    def local(df: pd.DataFrame) -> pd.DataFrame:
        return df[columns].drop_duplicates()

    pruned = ds.map_batches(local, batch_format="pandas")
    if merge_partitions and merge_partitions > 1:
        return grouped_apply(pruned, columns, local,
                             num_partitions=merge_partitions)
    # same shape as grouped_agg's default merge: the surviving rows fit
    # one task by this path's contract, and a collect+dedup skips the
    # repartition(1) AllToAll's fixed exchange cost
    return rd.from_pandas(local(pruned.to_pandas()))


def set_op_distinct(
    a: rd.Dataset,
    b: rd.Dataset,
    columns: Sequence[str],
    op: str = "intersect",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """SQL ``INTERSECT`` / ``EXCEPT`` (set semantics — distinct rows).
    Per-batch dedup + a 0/1 side flag bounds what leaves the map side to
    distinct-per-block; ONE ``grouped_agg`` max-merge per side flag
    decides membership — no pairwise join, no driver set. Column dtypes
    must already agree across the two inputs (a null-padding union
    would widen ints — align upstream)."""
    if op not in ("intersect", "except"):
        raise ValueError(f"op must be intersect|except, got {op!r}")
    columns = list(columns)

    def tag(side: int):
        def t(df: pd.DataFrame) -> pd.DataFrame:
            d = df[columns].drop_duplicates()
            return d.assign(
                __a=np.int64(1 - side), __b=np.int64(side)
            )
        return t

    u = a.map_batches(tag(0), batch_format="pandas").union(
        b.map_batches(tag(1), batch_format="pandas")
    )
    flags = grouped_agg(
        u, columns, {"__ia": ("__a", "max"), "__ib": ("__b", "max")},
        merge_partitions=merge_partitions,
    )
    keep = ((lambda df: df[(df["__ia"] == 1) & (df["__ib"] == 1)])
            if op == "intersect"
            else (lambda df: df[(df["__ia"] == 1) & (df["__ib"] == 0)]))
    return flags.map_batches(
        lambda df: keep(df)[columns], batch_format="pandas"
    )


def histogram(
    ds: rd.Dataset,
    col: str,
    lo: float,
    hi: float,
    nbins: int,
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Fixed-width histogram of a numeric column: bin index =
    ``floor((x - lo) / width)`` clamped into [0, nbins) so no row is
    dropped. Pure partial-aggregation shape — each block reduces to at
    most nbins rows before the merge; the bin boundary column is
    recomputed from the index (both sides of an oracle do the same IEEE
    double ops, so boundaries compare exactly)."""
    width = (hi - lo) / nbins

    def binb(df: pd.DataFrame) -> pd.DataFrame:
        x = df[col].to_numpy()
        b = np.clip(np.floor((x - lo) / width), 0, nbins - 1)
        return pd.DataFrame({"bin": b.astype(np.int64)})

    binned = ds.map_batches(binb, batch_format="pandas")
    counts = grouped_agg(binned, ["bin"], {"n": ("bin", "count")},
                         merge_partitions=merge_partitions)
    return counts.map_batches(
        lambda df: df.assign(bin_lo=(lo + df["bin"] * width).round(6)),
        batch_format="pandas",
    )


_ROLLUP_REAGG = {"sum": "sum", "count": "sum", "min": "min",
                 "max": "max"}


def rollup_agg(
    ds: rd.Dataset,
    keys: Sequence[str],
    aggs: Mapping[str, tuple[str, str]],
    total_label: str = "ALL",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """SQL ``GROUP BY ROLLUP(keys)``: the finest aggregate plus every
    prefix level up to the grand total. The fact table is read ONCE —
    the finest ``grouped_agg`` result (small: one row per key combo) is
    materialized and each coarser level re-aggregates it (count→sum,
    sum/min/max associative), so adding levels costs nothing at scale.
    Rolled-up key slots carry ``total_label`` (callers' keys must be
    strings); fns limited to the re-aggregatable set sum/count/min/max."""
    keys = list(keys)
    aggs = dict(aggs)
    for out, (_, fn) in aggs.items():
        if fn not in _ROLLUP_REAGG:
            raise ValueError(
                f"rollup_agg needs re-aggregatable fns, got {fn!r}"
            )
    finest = grouped_agg(ds, keys, aggs,
                         merge_partitions=merge_partitions).materialize()
    reagg = {out: (out, _ROLLUP_REAGG[fn])
             for out, (_, fn) in aggs.items()}
    levels = [finest]
    for i in range(len(keys) - 1, -1, -1):
        if i == 0:
            lvl = finest.repartition(1).map_batches(
                lambda df: pd.DataFrame(
                    {out: [df[out].agg(_ROLLUP_REAGG[fn])]
                     for out, (_, fn) in aggs.items()}
                ),
                batch_format="pandas", batch_size=None,
            )
        else:
            lvl = grouped_agg(finest, keys[:i], reagg)
        pad = keys[i:]
        lvl = lvl.map_batches(
            lambda df, pad=pad, order=keys + list(aggs): df.assign(
                **{c: total_label for c in pad}
            )[order],
            batch_format="pandas",
        )
        levels.append(lvl)
    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out


def _key_hash(df: pd.DataFrame, keys: list[str]) -> np.ndarray:
    """Vectorized uint64 hash of key columns: single keys hash their
    native values directly (no per-row string conversion); composite
    keys fall back to a NUL-joined string render.

    Numeric/datetime keys are canonicalized to float64 first so the SAME
    logical key always lands in the same partition even when the two
    sides of a co-partitioned op carry different physical dtypes (e.g.
    one side's int64 widened to float64 by a null-padding union —
    hash_array hashes raw bits, so 5 and 5.0 would otherwise diverge)."""

    def canon(col: pd.Series):
        arr = col.to_numpy()
        if arr.dtype.kind in "iuf":
            return arr.astype(np.float64)
        if arr.dtype.kind in "mM":
            return arr.view("int64").astype(np.float64)
        return arr

    if len(keys) == 1:
        return pd.util.hash_array(canon(df[keys[0]]))
    parts = [pd.Series(canon(df[c])).astype("string") for c in keys]
    key = parts[0]
    for p in parts[1:]:
        key = key + "\x00" + p
    return pd.util.hash_array(key.to_numpy(dtype=object))


def grouped_apply(
    ds: rd.Dataset,
    keys: Sequence[str],
    fn,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Apply ``fn(pdf)`` once per hash partition of the group keys.

    For high-cardinality keys (LSH buckets, pair dedup) Ray's
    ``groupby().map_groups`` pays a Python call per group — ruinous at
    10^4+ groups. This routes whole partitions (all rows of ``hash(keys) %
    num_partitions``) to one vectorized ``fn`` call; ``fn`` does its own
    within-partition pandas groupby. Co-location guarantee is identical
    (equal keys → equal partition)."""
    keys = list(keys)

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__gp=_key_hash(df, keys) % num_partitions)

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns="__gp"))

    return (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("__gp")
        .map_groups(run, batch_format="pandas")
    )


def grouped_apply_arrow(
    ds: rd.Dataset,
    keys: Sequence[str],
    fn,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Arrow-format sibling of :func:`grouped_apply` for rows carrying
    NESTED columns (list<struct> segments): Ray's pandas block codec
    cannot round-trip Arrow nested arrays (list elements degrade to
    numpy void scalars whose re-inference to Arrow fails), so a shuffle
    whose payload includes nested data must stay
    ``batch_format="pyarrow"`` end-to-end — the nested child arrays then
    ride the exchange as Arrow buffers, zero-copy in and out of the
    object store. Key hashing matches grouped_apply bit-for-bit (same
    ``_key_hash`` over the key columns), so the two forms co-locate
    identically."""
    keys = list(keys)

    def tag(t: pa.Table) -> pa.Table:
        kdf = pd.DataFrame({
            k: t.column(k).to_numpy(zero_copy_only=False) for k in keys})
        gp = (_key_hash(kdf, keys) % num_partitions).astype("int64")
        return t.append_column("__gp", pa.array(gp))

    def run(t: pa.Table) -> pa.Table:
        return fn(t.drop_columns(["__gp"]))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("__gp")
        .map_groups(run, batch_format="pyarrow")
    )


def tumbling_window_agg(
    ds: rd.Dataset,
    ts_col: str,
    window: str,
    keys: Sequence[str],
    aggs: Mapping[str, tuple[str, str]],
) -> rd.Dataset:
    """Event-time tumbling window (SURVEY.md §2.9): assign each row its
    window start inside map_batches (vectorized floor), then a grouped
    aggregate — Ray Data has no watermarks; batch semantics over the full
    table match the SQL ``date_trunc`` oracle."""

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["window_start"] = df[ts_col].dt.floor(window)
        return df

    return grouped_agg(
        ds.map_batches(assign, batch_format="pandas"),
        list(keys) + ["window_start"],
        aggs,
    )


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    key: str,
    ts_col: str,
    num_partitions: int = 32,
    suffix: str = "_r",
    direction: str = "backward",
    tolerance=None,
) -> rd.Dataset:
    """As-of join: for each left row, the latest right row with
    ``right.ts <= left.ts`` (``direction="backward"``, the DuckDB ASOF
    JOIN), the earliest with ``right.ts >= left.ts`` (``"forward"``), or
    the closest either way (``"nearest"``) for the same key (SURVEY.md
    §2 custom-operator case (a): sort within key-hash partitions +
    ``pd.merge_asof``).

    Both sides are tagged and co-located by ``hash(key) % num_partitions``
    (one shuffle of the two event streams); within a partition one
    ``merge_asof(by=key)`` call handles every key. Inner semantics: left
    rows with no prior right row are dropped (matches DuckDB ASOF JOIN).
    ``tolerance`` (a pd.Timedelta / int matching ``ts_col``'s dtype)
    additionally drops matches farther than the bound — the
    staleness-capped variant (a quote older than the tolerance is no
    quote); DuckDB has no equivalent, so its oracle is a bounded
    LATERAL.
    """
    lcols = list(left.schema().names)
    rcols = list(right.schema().names)

    def tag(df: pd.DataFrame, side: str) -> pd.DataFrame:
        return df.assign(__side=side)

    both = left.map_batches(partial(tag, side="l"),
                            batch_format="pandas").union(
        right.map_batches(partial(tag, side="r"), batch_format="pandas")
    )

    out_cols = lcols + [c + suffix for c in rcols if c != key]

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        l = g.loc[g["__side"] == "l", lcols].sort_values(ts_col,
                                                         kind="mergesort")
        r = g.loc[g["__side"] == "r", rcols].sort_values(ts_col,
                                                         kind="mergesort")
        if l.empty or r.empty:
            return pd.DataFrame(columns=out_cols)
        r = r.rename(columns={c: c + suffix for c in rcols if c != key})
        out = pd.merge_asof(
            l, r, left_on=ts_col, right_on=ts_col + suffix, by=key,
            direction=direction, tolerance=tolerance,
        )
        return out.dropna(subset=[ts_col + suffix])[out_cols]

    return grouped_apply(both, [key], per_partition,
                         num_partitions=num_partitions)


def sliding_window_agg(
    ds: rd.Dataset,
    ts_col: str,
    window: str,
    slide: str,
    keys: Sequence[str],
    aggs: Mapping[str, tuple[str, str]],
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Sliding event-time windows (SURVEY.md §2.9 extension): each event
    belongs to ``window/slide`` overlapping windows; the replication is
    vectorized inside ``map_batches`` (np.repeat + per-copy window-start
    offsets), then the grouped aggregate runs once over the replicated
    stream. ``window`` must be a multiple of ``slide``. Data volume is
    amplified exactly ``window/slide``× — the inherent cost of sliding
    windows; at scale pick slide accordingly."""
    window_ns = pd.Timedelta(window).value
    slide_ns = pd.Timedelta(slide).value
    if window_ns % slide_ns:
        raise ValueError("window must be a multiple of slide")
    n_per = window_ns // slide_ns

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        base = df[ts_col].dt.floor(slide)
        rep = np.repeat(np.arange(len(df)), n_per)
        out = df.iloc[rep].reset_index(drop=True)
        k = np.tile(np.arange(n_per), len(df))
        out["window_start"] = base.iloc[rep].reset_index(drop=True) - (
            pd.to_timedelta(k * slide_ns, unit="ns")
        )
        return out

    return grouped_agg(
        ds.map_batches(assign, batch_format="pandas"),
        list(keys) + ["window_start"],
        aggs,
        merge_partitions=merge_partitions,
    )


def approx_count_distinct(
    ds: rd.Dataset,
    col: str,
    p: int = 14,
    out_name: str = "approx_distinct",
) -> rd.Dataset:
    """HyperLogLog approximate distinct count (Flajolet et al. 2007) —
    the mergeable bounded-memory sibling of ``count_distinct`` for
    100-TB cardinalities. Per batch: hash the (dtype-canonicalized)
    column, register index = top ``p`` hash bits, register value =
    leading-zero rank of the rest; only NONZERO (idx, rho) pairs leave
    the batch (≤ 2^p rows however large the input). A ``grouped_agg``
    max-merge combines registers exactly like any additive partial, and
    one final task applies the estimator — linear counting below 2.5m
    (the regime where HLL's raw estimator biases), the bias-corrected
    harmonic mean above. Relative error ≈ 1.04/√m (~0.8% at p=14).
    Emits one row (``out_name``, int64)."""
    m = 1 << p

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _key_hash(df[[col]], [col]).astype(np.uint64)
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
        # rho = leading zeros of rest + 1, via float64 exponent trick-free
        # vectorized loop over the 64-p possible values
        rho = np.ones(len(h), dtype=np.int64)
        mask = np.uint64(1) << np.uint64(63)
        cur = rest
        for _ in range(64 - p):
            zero_top = (cur & mask) == 0
            if not zero_top.any():
                break
            rho[zero_top] += 1
            cur = cur << np.uint64(1)
            cur[~zero_top] = mask  # stop further counting for done rows
        reg = np.zeros(m, dtype=np.int64)
        np.maximum.at(reg, idx, rho)
        nz = np.flatnonzero(reg)
        return pd.DataFrame({
            "__reg": nz.astype("int64"),
            "__rho": reg[nz].astype("int64"),
        })

    merged = grouped_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["__reg"], {"__rho": ("__rho", "max")},
    )

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        reg = np.zeros(m, dtype=np.float64)
        reg[df["__reg"].to_numpy()] = df["__rho"].to_numpy()
        n_zero = int((reg == 0).sum())
        alpha = 0.7213 / (1 + 1.079 / m)
        raw = alpha * m * m / np.power(2.0, -reg).sum()
        if raw <= 2.5 * m and n_zero:
            est = m * np.log(m / n_zero)  # linear counting
        else:
            est = raw
        return pd.DataFrame({out_name: np.array([round(est)], dtype="int64")})

    return merged.repartition(1).map_batches(
        estimate, batch_format="pandas", batch_size=None
    )


def grouped_quantiles(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    quantiles: Sequence[float],
    out_names: Sequence[str] | None = None,
    num_partitions: int = 16,
    method: str = "linear",
) -> rd.Dataset:
    """Exact grouped quantiles: hash-partition by key, one vectorized
    numpy quantile per group. ``method="linear"`` is the
    ``percentile_cont`` definition (DuckDB ``quantile_cont``);
    ``method="inverted_cdf"`` is ``percentile_disc`` (DuckDB
    ``quantile_disc`` — the first actual value whose cumulative
    distribution reaches the target). The group's values co-locate in
    one partition — exactness requires it; at 100 TB swap in a mergeable
    sketch (t-digest) for bounded-memory approximation, keeping this as
    the small-group/oracle path."""
    keys = list(keys)
    qs = list(quantiles)
    names = list(out_names) if out_names else [f"q{int(q * 100)}" for q in qs]

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in part.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            vals = np.quantile(
                g[col].to_numpy(dtype=np.float64), qs, method=method
            )
            rows.append(kv + tuple(vals))
        return pd.DataFrame(rows, columns=keys + names)

    return grouped_apply(
        ds.map_batches(
            lambda df: df[keys + [col]], batch_format="pandas"
        ),
        keys, per_partition, num_partitions=num_partitions,
    )


def _hist_quantile_estimates(
    h: np.ndarray, lo: float, hi: float, qs: Sequence[float], bins: int
) -> list[float]:
    """Linear-interpolated quantile estimates from one key's merged
    fixed-width histogram (shared by both sketch paths so they are
    bit-identical)."""
    width = (hi - lo) or 1.0
    cum = np.cumsum(h)
    n = cum[-1]
    ests = []
    for q in qs:
        target = q * (n - 1) + 1  # rank (1-based, continuous)
        bi = int(np.searchsorted(cum, target))
        prev = cum[bi - 1] if bi > 0 else 0
        inbin = h[bi] or 1
        frac = (target - prev) / inbin
        ests.append(lo + (bi + frac) * width / bins)
    return ests


def grouped_quantiles_sketch(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    quantiles: Sequence[float],
    out_names: Sequence[str] | None = None,
    bins: int = 2048,
    range_merge_partitions: int | None = None,
    broadcast_max_keys: int = 2_000_000,
    num_buckets: int = 32,
) -> rd.Dataset:
    """Approximate grouped quantiles via a mergeable fixed-width
    histogram sketch — the bounded-memory 100-TB path behind
    ``grouped_quantiles`` (which must co-locate every group's raw
    values).

    Two passes, both O(keys × bins) state regardless of input size:
    (1) per-key min/max (tiny grouped aggregate; pass
    ``range_merge_partitions`` to hash-partition its merge when the key
    count scales with the fact table);
    (2) per-batch per-key bin counts — pure additive partials, merged by
    summation like any ``grouped_agg``. Quantiles are estimated by
    linear interpolation of the cumulative histogram inside the target
    bin. Guarantee: the estimate lies within one bin width (range/bins)
    of the order statistic at the target's CEILING rank
    (⌈q·(n−1)+1⌉-th smallest) — the estimate's bin provably contains
    that order statistic. Where data is dense (adjacent order statistics
    within a bin) this implies the usual |est − quantile| ≤ range/bins;
    in sparse tail regions the distance to the INTERPOLATED exact
    quantile additionally pays the gap between the two bracketing order
    statistics (an information-theoretic limit of any histogram). The
    result is DETERMINISTIC and partitioning-independent — unlike
    merge-order-sensitive sketches (t-digest), identical at every
    parallelism. Accuracy vs the exact path is pinned by pytest and the
    ``quantiles_sketch_err`` invariant oracle.

    Range distribution auto-switches on key cardinality — no hard bound:
    * ≤ ``broadcast_max_keys`` distinct keys: the (lo, hi) map is
      broadcast once (~50 B/key; the default threshold ≈ 100 MB) and the
      fact table never shuffles — partials stream out of each batch.
    * beyond that: NO broadcast — ranges are bucket-joined onto the fact
      rows (one key-hash fact shuffle) and then ride every partial row
      as (__lo, __hi) passenger columns through the SAME hash
      partitioning as the bin counts, so the estimate stage reads them
      in place. Driver state is O(1); both paths produce bit-identical
      estimates (pinned by the high-cardinality pytest).
    """
    keys = list(keys)
    qs = list(quantiles)
    names = list(out_names) if out_names else [f"q{int(q * 100)}" for q in qs]

    rng = grouped_agg(
        ds, keys, {"__lo": (col, "min"), "__hi": (col, "max")},
        merge_partitions=range_merge_partitions,
    ).materialize()

    if rng.count() <= broadcast_max_keys:
        rng_tbl = rng.to_pandas()
        # vectorized dict build: zip over column arrays, no iterrows
        key_cols = [rng_tbl[k].to_numpy() for k in keys]
        ranges = dict(zip(
            zip(*key_cols),
            zip(rng_tbl["__lo"].astype(float).to_numpy(),
                rng_tbl["__hi"].astype(float).to_numpy()),
        ))
        ref = ray.put(ranges)
        refs = [ref]

        def partial_hist(df: pd.DataFrame) -> pd.DataFrame:
            rngs = resolve_broadcast(refs[0])
            out = []
            for kv, g in df.groupby(keys, sort=False):
                kv = kv if isinstance(kv, tuple) else (kv,)
                lo, hi = rngs[kv]
                width = (hi - lo) or 1.0
                v = g[col].to_numpy(dtype=np.float64)
                b = np.clip(((v - lo) / width * bins).astype(np.int64), 0,
                            bins - 1)
                counts = np.bincount(b, minlength=bins)
                nz = np.nonzero(counts)[0]
                out.append(pd.DataFrame({
                    **{k: np.repeat(c, len(nz)) for k, c in zip(keys, kv)},
                    "__bin": nz,
                    "__n": counts[nz],
                }))
            return pd.concat(out, ignore_index=True) if out else pd.DataFrame(
                {**{k: [] for k in keys}, "__bin": [], "__n": []}
            )

        partials = ds.map_batches(partial_hist, batch_format="pandas")

        def estimate(part: pd.DataFrame) -> pd.DataFrame:
            rngs = resolve_broadcast(refs[0])
            rows = []
            for kv, g in part.groupby(keys, sort=False):
                kv = kv if isinstance(kv, tuple) else (kv,)
                lo, hi = rngs[kv]
                h = np.zeros(bins, dtype=np.int64)
                np.add.at(h, g["__bin"].to_numpy(), g["__n"].to_numpy())
                rows.append(kv + tuple(
                    _hist_quantile_estimates(h, lo, hi, qs, bins)))
            return pd.DataFrame(rows, columns=keys + names)

        return grouped_apply(partials, keys, estimate, num_partitions=16)

    # --- high-cardinality path: ranges co-partitioned, never broadcast ---
    # integer keys would be NaN-padded to float64 inside the tagged-union
    # shuffle (precision loss above 2^53 — exactly the huge-key-space
    # regime this path exists for, e.g. 64-bit URL hashes): route them
    # as lossless strings and cast back after the estimate
    sch = rng.schema()

    def _np_dtype(t):
        return np.dtype(
            t.to_pandas_dtype() if isinstance(t, pa.DataType) else t)

    int_keys = {
        k: _np_dtype(t) for k, t in zip(sch.names, sch.types)
        if k in keys and np.issubdtype(_np_dtype(t), np.integer)
    }

    def stringify(df: pd.DataFrame) -> pd.DataFrame:
        for k, dt in int_keys.items():
            df = df.assign(**{k: df[k].astype(dt).astype(str)})
        return df

    fact = ds.map_batches(lambda df: stringify(df[keys + [col]]),
                          batch_format="pandas")
    joined = bucketed_hash_join(
        fact, rng.map_batches(stringify, batch_format="pandas"),
        on=keys, num_buckets=num_buckets)

    def partial_hist_inline(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["__lo"].to_numpy(dtype=np.float64)
        hi = df["__hi"].to_numpy(dtype=np.float64)
        width = np.where(hi > lo, hi - lo, 1.0)
        v = df[col].to_numpy(dtype=np.float64)
        b = np.clip(((v - lo) / width * bins).astype(np.int64), 0, bins - 1)
        t = df[keys].copy()
        t["__bin"] = b
        t["__lo"] = lo
        t["__hi"] = hi
        # lo/hi are constant per key, so they pass through the groupby
        # as extra key columns — the ranges ride WITH the partials
        return (t.groupby(keys + ["__lo", "__hi", "__bin"], sort=False,
                          observed=True)
                .size().reset_index(name="__n"))

    partials = joined.map_batches(partial_hist_inline, batch_format="pandas")

    def estimate_inline(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in part.groupby(keys, sort=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            lo = float(g["__lo"].iloc[0])
            hi = float(g["__hi"].iloc[0])
            h = np.zeros(bins, dtype=np.int64)
            np.add.at(h, g["__bin"].to_numpy(),
                      g["__n"].to_numpy())
            rows.append(kv + tuple(
                _hist_quantile_estimates(h, lo, hi, qs, bins)))
        out = pd.DataFrame(rows, columns=keys + names)
        for k, dt in int_keys.items():  # undo the lossless string route
            out[k] = out[k].astype(dt)
        return out

    return grouped_apply(partials, keys, estimate_inline, num_partitions=16)


def grouped_linreg(
    ds: rd.Dataset,
    keys: Sequence[str],
    x: str,
    y: str,
    merge_partitions: int | None = None,
    with_n: bool = False,
    drop_degenerate: bool = False,
) -> rd.Dataset:
    """Grouped least-squares regression of y on x — SQL ``regr_slope``/
    ``regr_intercept``/``covar_samp`` in one pass via the same
    partial-sums pattern as ``grouped_corr``: each batch emits
    (n, Σx, Σy, Σx², Σxy) per key, merged coalesced or hash-partitioned.
    Same numerics caveat: pre-center very-large-magnitude columns.
    ``with_n`` adds the per-key row count; ``drop_degenerate`` drops
    keys with n < 2 or zero x-variance (where SQL's regr_slope is
    NULL) — the per-entity trend-scan contract."""
    keys = list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        xv = df[x].astype("float64")
        yv = df[y].astype("float64")
        t = pd.DataFrame({
            **{k: df[k] for k in keys},
            "__n": np.ones(len(df)),
            "__sx": xv, "__sy": yv,
            "__sxx": xv * xv, "__sxy": xv * yv,
        })
        return t.groupby(keys, sort=False, observed=True).sum().reset_index()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, observed=True).sum().reset_index()
        n = g["__n"]
        cov = g["__sxy"] - g["__sx"] * g["__sy"] / n
        vx = g["__sxx"] - g["__sx"] ** 2 / n
        out = g[keys].copy()
        out["covar_samp"] = (cov / (n - 1)).astype("float64")
        out["slope"] = (cov / vx).astype("float64")
        out["intercept"] = (
            g["__sy"] / n - (cov / vx) * g["__sx"] / n
        ).astype("float64")
        if with_n:
            out["n"] = n.astype("int64").to_numpy()
        if drop_degenerate:
            out = out[((n >= 2) & (vx > 0)).to_numpy()]
        return out

    parts = ds.map_batches(partial, batch_format="pandas")
    if merge_partitions and merge_partitions > 1:
        return grouped_apply(parts, keys, merge,
                             num_partitions=merge_partitions)
    return parts.repartition(1).map_batches(
        merge, batch_format="pandas", batch_size=None
    )


def grouped_corr(
    ds: rd.Dataset,
    keys: Sequence[str],
    x: str,
    y: str,
    out_name: str = "corr",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Grouped Pearson correlation via the partial-sums pattern: each
    batch emits (n, Σx, Σy, Σx², Σy², Σxy) per key — six numbers per key
    per block, regardless of input size — merged in one coalesced reduce
    by default (partials are six floats per key, so the single-task
    threshold is high), or a hash-partitioned merge with
    ``merge_partitions=P`` for key counts that scale with the fact table
    (same contract as ``grouped_agg``). Numerics: use small-magnitude
    columns (or pre-center) — the naive sums cancel badly when |x| is
    large."""
    keys = list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        xv = df[x].astype("float64")
        yv = df[y].astype("float64")
        t = pd.DataFrame({
            **{k: df[k] for k in keys},
            "__n": np.ones(len(df)),
            "__sx": xv, "__sy": yv,
            "__sxx": xv * xv, "__syy": yv * yv, "__sxy": xv * yv,
        })
        return t.groupby(keys, sort=False, observed=True).sum().reset_index()

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, observed=True).sum().reset_index()
        n = g["__n"]
        cov = g["__sxy"] - g["__sx"] * g["__sy"] / n
        vx = g["__sxx"] - g["__sx"] ** 2 / n
        vy = g["__syy"] - g["__sy"] ** 2 / n
        out = g[keys].copy()
        out[out_name] = (cov / np.sqrt(vx * vy)).astype("float64")
        return out

    parts = ds.map_batches(partial, batch_format="pandas")
    if merge_partitions and merge_partitions > 1:
        return grouped_apply(parts, keys, merge,
                             num_partitions=merge_partitions)
    return parts.repartition(1).map_batches(
        merge, batch_format="pandas", batch_size=None
    )


def sessionize(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    gap_seconds: float,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Session windows per key with an inactivity gap: hash-partition by
    key (``grouped_apply`` — one shuffle, NOT a Python call per key,
    which is ruinous at 10^5+ users), then ONE vectorized sort + diff +
    groupby.agg per partition: new session where the within-key gap
    exceeds the threshold."""

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col], kind="mergesort")
        gaps = g.groupby(key, sort=False)[ts_col].diff().dt.total_seconds()
        agg = (
            g.assign(__new=(gaps > gap_seconds))
            .groupby(key, sort=False)
            .agg(n_sessions=("__new", "sum"), n_events=("__new", "size"))
            .reset_index()
        )
        agg["n_sessions"] = (agg["n_sessions"] + 1).astype("int64")
        agg["n_events"] = agg["n_events"].astype("int64")
        return agg

    return grouped_apply(ds, [key], per_partition,
                         num_partitions=num_partitions)


def grouped_moments(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Grouped SKEWNESS and (excess) KURTOSIS — SQL ``skewness``/
    ``kurtosis``, bias-corrected sample semantics — via the same
    mergeable-partials pattern as ``grouped_corr``: each batch emits
    (n, Σx, Σx², Σx³, Σx⁴) per key, partials sum-merge, and the finalize
    converts raw power sums to central moments. NULL (NaN) below the
    defining support (skew needs n≥3, kurtosis n≥4 — matching DuckDB).
    Numerics caveat as grouped_corr: raw power sums cancel
    catastrophically for very-large-magnitude columns; pre-center
    upstream if |mean| ≫ stddev."""
    keys = list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[col].astype("float64")
        t = pd.DataFrame({
            **{k: df[k] for k in keys},
            # n counts NON-NULL rows (SQL semantics; the power sums
            # already skip NaN via pandas' groupby sum)
            "__n": x.notna().astype("float64"),
            "__s1": x, "__s2": x**2, "__s3": x**3, "__s4": x**4,
        })
        return t.groupby(keys, sort=False, observed=True).sum().reset_index()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, observed=True).sum().reset_index()
        n = g["__n"].to_numpy()
        nz = np.maximum(n, 1)
        s1, s2 = g["__s1"].to_numpy(), g["__s2"].to_numpy()
        s3, s4 = g["__s3"].to_numpy(), g["__s4"].to_numpy()
        m = s1 / nz
        m2 = np.maximum(s2 - s1 * m, 0.0)          # Σ(x-m)²
        m3 = s3 - 3 * m * s2 + 2 * n * m**3        # Σ(x-m)³
        m4 = s4 - 4 * m * s3 + 6 * m**2 * s2 - 3 * n * m**4
        var = m2 / np.maximum(n - 1, 1)
        # constant (or numerically-constant) groups are NULL in SQL;
        # a relative threshold also absorbs cancellation residue that
        # would otherwise divide to ±inf
        degenerate = var <= np.maximum(np.abs(m) * 1e-14, 1e-150) ** 2
        var_safe = np.where(degenerate, 1.0, var)
        skew = np.where(
            (n > 2) & ~degenerate,
            n / np.maximum((n - 1) * (n - 2), 1) * m3 / var_safe**1.5,
            np.nan,
        )
        kurt = np.where(
            (n > 3) & ~degenerate,
            n * (n + 1)
            / np.maximum((n - 1) * (n - 2) * (n - 3), 1)
            * m4 / var_safe**2
            - 3 * (n - 1) ** 2 / np.maximum((n - 2) * (n - 3), 1),
            np.nan,
        )
        out = g[keys].copy()
        out["skew"] = skew.astype("float64")
        out["kurt"] = kurt.astype("float64")
        return out

    part = ds.map_batches(partial, batch_format="pandas")
    if merge_partitions and merge_partitions > 1:
        return grouped_apply(part, keys, finalize,
                             num_partitions=merge_partitions)
    return part.repartition(1).map_batches(
        finalize, batch_format="pandas", batch_size=None)


def grouped_arg_extreme(
    ds: rd.Dataset,
    keys: Sequence[str],
    val_col: str,
    by_col: str,
    mode: str = "max",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """SQL ``arg_max(val, by)`` / ``arg_min`` per group, with a
    DETERMINISTIC tiebreak (smallest ``val_col`` among tied ``by_col``
    rows) so the result is parallelism-invariant and SQL-oracle-safe
    (plain arg_max leaves ties unspecified — the oracle twin is a
    row_number over (by DESC, val ASC)).

    Partial-reducible, unlike a generic first/last window: each batch
    keeps ONE candidate row per key (vectorized sort + head), so only
    ≤|keys| rows per block reach the exchange — the wordcount pattern
    applied to extremes."""
    keys = list(keys)
    asc_by = mode != "max"
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        df = df[keys + [by_col, val_col]].sort_values(
            keys + [by_col, val_col],
            ascending=[True] * len(keys) + [asc_by, True],
            kind="mergesort",
        )
        return df.groupby(keys, sort=False, observed=True).head(1)

    part = ds.map_batches(pick, batch_format="pandas")
    if merge_partitions and merge_partitions > 1:
        return grouped_apply(part, keys, pick,
                             num_partitions=merge_partitions)
    return part.repartition(1).map_batches(
        pick, batch_format="pandas", batch_size=None)


def grouping_sets_agg(
    ds: rd.Dataset,
    keys: Sequence[str],
    sets: Sequence[Sequence[str]],
    aggs: Mapping[str, tuple[str, str]],
    total_label: str = "ALL",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """SQL ``GROUP BY GROUPING SETS(...)`` (and, via all-subsets,
    ``CUBE``): the fact table is read ONCE — the finest aggregate over
    ``keys`` (one row per combo, small) is materialized and every
    grouping set re-aggregates it (sum/count/min/max are associative),
    the same single-read discipline as :func:`rollup_agg`. Rolled-away
    key slots carry ``total_label`` (keys must be string columns). Each
    set must be a subset of ``keys``."""
    keys = list(keys)
    aggs = dict(aggs)
    for out, (_, fn) in aggs.items():
        if fn not in _ROLLUP_REAGG:
            raise ValueError(
                f"grouping_sets_agg needs re-aggregatable fns, got {fn!r}"
            )
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of {keys}")
    finest = grouped_agg(ds, keys, aggs,
                         merge_partitions=merge_partitions).materialize()
    reagg = {out: (out, _ROLLUP_REAGG[fn]) for out, (_, fn) in aggs.items()}
    order = keys + list(aggs)
    levels = []
    for s in sets:
        s = list(s)
        if set(s) == set(keys):
            lvl = finest
        elif not s:
            lvl = finest.repartition(1).map_batches(
                lambda df: pd.DataFrame(
                    {out: [df[out].agg(_ROLLUP_REAGG[fn])]
                     for out, (_, fn) in aggs.items()}
                ),
                batch_format="pandas", batch_size=None,
            )
        else:
            lvl = grouped_agg(finest, s, reagg)
        pad = [k for k in keys if k not in s]
        levels.append(lvl.map_batches(
            lambda df, pad=pad, order=order: df.assign(
                **{c: total_label for c in pad}
            )[order],
            batch_format="pandas",
        ))
    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out


def cube_agg(
    ds: rd.Dataset,
    keys: Sequence[str],
    aggs: Mapping[str, tuple[str, str]],
    total_label: str = "ALL",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """SQL ``GROUP BY CUBE(keys)`` — all 2^|keys| grouping sets, each
    re-aggregated from ONE materialized finest pass."""
    from itertools import combinations

    keys = list(keys)
    sets: list[tuple[str, ...]] = []
    for r in range(len(keys), -1, -1):
        sets.extend(combinations(keys, r))
    return grouping_sets_agg(ds, keys, sets, aggs,
                             total_label=total_label,
                             merge_partitions=merge_partitions)


def range_frame_agg(
    ds: rd.Dataset,
    keys: Sequence[str],
    ts_col: str,
    val_col: str,
    width_us: int,
    out_name: str = "range_sum",
    num_partitions: int = 16,
) -> rd.Dataset:
    """Time-RANGE window frame: per group ordered by ``ts_col``, the sum
    of ``val_col`` over ``RANGE BETWEEN width PRECEDING AND CURRENT
    ROW`` — timestamp-valued frame bounds, peers (equal ts) included,
    exactly SQL RANGE semantics (vs the row-count frames of
    ``moving_avg``).

    One key-hash exchange; inside each partition the whole frame math is
    THREE vectorized ops, no per-group Python loop: rows sort by
    (group, ts), groups are mapped onto disjoint int64 intervals
    (``gid * span + (ts - ts_min)``), and both frame edges for ALL rows
    come from two whole-array ``np.searchsorted`` calls against that
    composite axis + one prefix-sum difference."""
    keys = list(keys)

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            return part.assign(**{out_name: pd.Series([], dtype="float64")})
        part = part.sort_values(keys + [ts_col],
                                kind="mergesort").reset_index(drop=True)
        ts = part[ts_col].to_numpy()
        if ts.dtype.kind == "M":
            ts = ts.astype("datetime64[us]").view("int64")
        else:
            ts = ts.astype("int64")
        gid = pd.MultiIndex.from_frame(part[keys]).factorize()[0] \
            if len(keys) > 1 else part[keys[0]].factorize()[0]
        gid = np.asarray(gid, dtype="int64")
        t0 = ts.min()
        rel = ts - t0
        span = int(rel.max()) + int(width_us) + 2
        if (int(gid.max()) + 1) * span >= np.iinfo(np.int64).max:
            # composite axis would overflow int64 — fail stop rather
            # than alias groups (needs a wider span encoding; at that
            # point raise num_partitions so per-partition gid shrinks)
            raise ValueError(
                "range_frame_agg: group-count x time-span exceeds int64;"
                " raise num_partitions"
            )
        comp = gid * span + rel
        lo = np.searchsorted(comp, gid * span + rel - width_us, side="left")
        hi = np.searchsorted(comp, comp, side="right")
        csum = np.concatenate(
            [[0.0], np.cumsum(part[val_col].to_numpy(dtype="float64"))]
        )
        return part.assign(**{out_name: csum[hi] - csum[lo]})

    return grouped_apply(ds, keys, per_part, num_partitions=num_partitions)


def funnel_steps(
    events: rd.Dataset,
    user_col: str,
    type_col: str,
    ts_col: str,
    steps: Sequence[str],
    within_us: int | None = None,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Ordered-funnel analysis: for each user, the earliest completion
    of ``steps`` in strict timestamp order (greedy: first step-1 event,
    then the first step-2 event strictly after it, ...). Returns one row
    per completing user — ``(user, t1..tk)`` — optionally restricted to
    funnels finishing within ``within_us`` of the first step.

    Shape: ONE key-hash exchange co-locates every user's events; inside
    the partition each chaining round is a vectorized groupby-min +
    merge over only the rows of that step's type (no per-user loop).
    The k-step chain is k small partition-local reductions, not k
    dataset exchanges."""
    keys = [user_col]
    steps = list(steps)

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        cur = (
            part.loc[part[type_col] == steps[0]]
            .groupby(user_col, sort=False)[ts_col].min().rename("t1")
            .reset_index()
        )
        for i, step in enumerate(steps[1:], start=2):
            nxt = part.loc[part[type_col] == step,
                           [user_col, ts_col]].merge(cur, on=user_col)
            nxt = nxt[nxt[ts_col] > nxt[f"t{i - 1}"]]
            if nxt.empty:
                cur = cur.iloc[:0].assign(**{f"t{i}": pd.Series(
                    [], dtype="datetime64[us]")})
                continue
            g = nxt.groupby(
                [user_col] + [f"t{j}" for j in range(1, i)], sort=False
            )[ts_col].min().rename(f"t{i}").reset_index()
            cur = g
        if within_us is not None and len(cur) and len(steps) > 1:
            span = (cur[f"t{len(steps)}"] - cur["t1"])
            cur = cur[span <= pd.Timedelta(microseconds=within_us)]
        return cur[[user_col] + [f"t{i}" for i in range(1, len(steps) + 1)]]

    return grouped_apply(events, keys, per_part,
                         num_partitions=num_partitions)


def resample_ffill(
    ds: rd.Dataset,
    keys: Sequence[str],
    ts_col: str,
    val_col: str,
    freq_us: int,
    grid_col: str = "h",
    out_name: str = "value_ff",
    num_partitions: int = 16,
) -> rd.Dataset:
    """Time-grid resampling with forward fill (gap filling): per group,
    a regular grid from floor(min ts) to floor(max ts) at ``freq_us``,
    each grid point carrying the LAST observed value at-or-before it
    (NULL when the grid point precedes the first event — SQL
    ``ASOF LEFT JOIN`` semantics, which the oracle uses verbatim).

    One key-hash exchange; inside each partition the whole fill is
    vectorized on the composite (group, time) int64 axis of
    :func:`range_frame_agg`: grid rows materialize via repeat+arange,
    ONE ``searchsorted`` against the sorted event axis finds every grid
    point's predecessor event, and a group-start comparison masks
    fills that would leak from the previous group."""
    keys = list(keys)

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            **{k: part[k].iloc[:0] for k in keys},
            grid_col: pd.Series([], dtype="datetime64[us]"),
            out_name: pd.Series([], dtype="float64"),
        })
        if not len(part):
            return empty
        part = part.sort_values(keys + [ts_col],
                                kind="mergesort").reset_index(drop=True)
        ts = part[ts_col].to_numpy().astype("datetime64[us]").view("int64")
        gid = pd.MultiIndex.from_frame(part[keys]).factorize()[0] \
            if len(keys) > 1 else part[keys[0]].factorize()[0]
        gid = np.asarray(gid, dtype="int64")
        n_g = int(gid.max()) + 1
        starts = np.full(n_g, len(part), dtype="int64")
        np.minimum.at(starts, gid, np.arange(len(part)))
        # per-group grid bounds, floored to the grid frequency
        lo = np.full(n_g, np.iinfo(np.int64).max)
        hi = np.full(n_g, np.iinfo(np.int64).min)
        np.minimum.at(lo, gid, ts)
        np.maximum.at(hi, gid, ts)
        lo = lo // freq_us * freq_us
        hi = hi // freq_us * freq_us
        sizes = (hi - lo) // freq_us + 1
        total = int(sizes.sum())
        g_gid = np.repeat(np.arange(n_g), sizes)
        offs = np.arange(total, dtype="int64") - np.repeat(
            np.cumsum(sizes) - sizes, sizes)
        g_ts = np.repeat(lo, sizes) + offs * freq_us
        t0 = ts.min()
        span = int(max(ts.max(), g_ts.max()) - t0) + freq_us + 2
        if n_g * span >= np.iinfo(np.int64).max:
            raise ValueError(
                "resample_ffill: group-count x time-span exceeds int64;"
                " raise num_partitions"
            )
        comp_ev = gid * span + (ts - t0)
        comp_gr = g_gid * span + (g_ts - t0)
        idx = np.searchsorted(comp_ev, comp_gr, side="right") - 1
        vals = part[val_col].to_numpy(dtype="float64")
        filled = np.where(idx >= starts[g_gid],
                          vals[np.maximum(idx, 0)], np.nan)
        key_rows = part.iloc[starts[g_gid]][keys].reset_index(drop=True)
        return pd.DataFrame({
            **{k: key_rows[k] for k in keys},
            grid_col: g_ts.view("datetime64[us]"),
            out_name: filled,
        })

    return grouped_apply(ds, keys, per_part,
                         num_partitions=num_partitions)


def freq_sketch(
    ds: rd.Dataset,
    col: str,
    k: int = 64,
    batch_size: int = 131072,
) -> tuple[rd.Dataset, int, int]:
    """Misra–Gries frequent-items sketch (mergeable-summaries form,
    Agarwal et al. 2012) — the bounded-memory frequency sibling of the
    HLL cardinality sketch and the histogram quantile sketch: top items
    by count over a column whose distinct-value set is too large to
    aggregate exactly.

    Per batch: an exact vectorized ``value_counts`` (bounded by batch
    size), then the MG reduction — subtract the (k+1)-th largest count
    from every counter and drop the non-positive — so at most ``k``
    (item, count) rows plus one (n, decrement) bookkeeping row leave
    each batch regardless of input size. The merge (driver collect of
    the ≤ (k+1) × blocks partial rows, the ``grouped_agg`` default-merge
    rationale) sums counts per item and applies one final MG reduction.

    Guarantees (each decrement of ``d`` removes ≥ (k+1)·d total mass,
    so the cumulative decrement Δ ≤ n/(k+1)):

    * every reported count is a LOWER bound on the item's true count;
    * true count ≤ reported + Δ;
    * any item with true count > Δ is present in the output.

    Like any MG sketch the exact counts depend on batch boundaries, so
    the output is approximate (not parallelism-invariant); the
    guarantees above are machine-checked by the ``freq_sketch_audit``
    invariant oracle. Returns ``(dataset(item, est_lb, est_ub), n,
    delta)``.
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()  # sorted desc
        n_b = int(vc.sum())
        dec = int(vc.iloc[k]) if len(vc) > k else 0
        kept = (vc - dec) if dec else vc
        kept = kept[kept > 0]
        out = pd.DataFrame({
            "item": kept.index.to_numpy(),
            "cnt": kept.to_numpy(dtype="int64"),
            "n": np.zeros(len(kept), dtype="int64"),
            "dec": np.zeros(len(kept), dtype="int64"),
        })
        if n_b:
            meta = pd.DataFrame({
                "item": out["item"].iloc[:1]
                if len(out) else df[col].iloc[:1],
                "cnt": np.array([0], dtype="int64"),
                "n": np.array([n_b], dtype="int64"),
                "dec": np.array([dec], dtype="int64"),
            })
            out = pd.concat([out, meta], ignore_index=True)
        return out

    part = ds.map_batches(partial, batch_format="pandas",
                          batch_size=batch_size).to_pandas()
    if len(part) == 0:
        empty = pd.DataFrame({
            "item": pd.Series([], dtype=object),
            "est_lb": pd.Series([], dtype="int64"),
            "est_ub": pd.Series([], dtype="int64"),
        })
        return rd.from_pandas(empty), 0, 0
    n_total = int(part["n"].sum())
    delta = int(part["dec"].sum())
    g = (part.groupby("item", sort=False)["cnt"].sum()
         .sort_values(ascending=False))
    g = g[g > 0]
    if len(g) > k:
        d = int(g.iloc[k])
        g = g - d
        g = g[g > 0]
        delta += d
    out = pd.DataFrame({
        "item": g.index.to_numpy(),
        "est_lb": g.to_numpy(dtype="int64"),
        "est_ub": g.to_numpy(dtype="int64") + delta,
    })
    return rd.from_pandas(out), n_total, delta


def retention_cohorts(
    ds: rd.Dataset,
    user_col: str,
    ts_col: str,
    period_us: int = 604_800_000_000,  # one week
    num_partitions: int = 32,
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Cohort retention: users grouped by their first-activity period,
    counted in every later period they return — THE follow-on analytics
    query over any event log (here: did a crawled host/user come back).

    Returns ``(cohort, period_offset, n_users)``: cohort = the user's
    first period (``floor(ts/period)``), offset = period − cohort,
    n_users = distinct users from that cohort active at that offset.

    Dataflow: ONE user-hash exchange (``grouped_apply``) co-locates each
    user's events; inside a partition everything is vectorized pandas —
    first-period transform, (user, cohort, offset) dedup, a partial
    (cohort, offset) count — so only per-partition partial count rows
    leave the exchange, merged by ``grouped_agg``. No distinct-count
    shuffle: per-user dedup happens where the user already lives."""

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        # normalize to µs regardless of the block's datetime unit
        wk = (part[ts_col].to_numpy(dtype="datetime64[us]")
              .astype("int64") // period_us)
        g = pd.DataFrame({"u": part[user_col].to_numpy(), "wk": wk})
        g["cohort"] = g.groupby("u", sort=False)["wk"].transform("min")
        g["period_offset"] = g["wk"] - g["cohort"]
        d = g.drop_duplicates(["u", "period_offset"])
        out = (d.groupby(["cohort", "period_offset"], sort=False)
               .size().reset_index(name="cnt"))
        out["cnt"] = out["cnt"].astype("int64")
        return out

    partials = grouped_apply(ds, [user_col], per_part,
                             num_partitions=num_partitions)
    return grouped_agg(partials, ["cohort", "period_offset"],
                       {"n_users": ("cnt", "sum")},
                       merge_partitions=merge_partitions)


def interval_coverage(
    ds: rd.Dataset,
    keys: Sequence[str],
    lo_col: str,
    hi_col: str,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-key merged-interval statistics: overlapping/touching
    ``[lo, hi]`` intervals union into islands; emits per key
    ``n_intervals``, ``n_islands`` and ``covered`` (total island
    length, Σ island_hi − island_lo). The classic sweep-line coverage
    aggregate (uptime per host, shipping-activity span per supplier)
    that plain SUM(hi−lo) double-counts.

    ONE key-hash exchange (`grouped_apply`) co-locates each key, then
    everything in-partition is a single mergesort plus cython grouped
    cummax/shift — no Python loop over keys or islands. An interval
    starting exactly at the running max still merges (closed-interval
    semantics, matching the SQL twin's ``lo > max_prev``). Columns must
    be numeric (timestamps pre-converted to epoch µs by the caller, so
    both engines subtract in exact int64). Intervals must satisfy
    ``hi >= lo`` — an inverted interval would yield negative island
    lengths and a silently wrong ``covered``, so each partition asserts
    the precondition (cheap vectorized check) instead of mirroring the
    corruption."""
    keys = list(keys)

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame(
                {**{k: pd.Series(dtype=object) for k in keys},
                 "n_intervals": pd.Series(dtype="int64"),
                 "n_islands": pd.Series(dtype="int64"),
                 "covered": pd.Series(dtype="int64")})
        bad = part[hi_col].to_numpy() < part[lo_col].to_numpy()
        if bad.any():
            raise ValueError(
                f"interval_coverage: {int(bad.sum())} interval(s) with "
                f"{hi_col} < {lo_col} — inverted intervals produce "
                "negative island lengths; clamp or drop them upstream")
        p = part.sort_values(keys + [lo_col, hi_col], kind="mergesort")
        lo = p[lo_col].to_numpy()
        hi = p[hi_col].to_numpy()
        gk = p.groupby(keys, sort=False)
        prev_max = gk[hi_col].cummax().shift(1)
        first_of_key = gk.cumcount().to_numpy() == 0
        new_island = first_of_key | (lo > prev_max.to_numpy())
        island = np.cumsum(new_island)  # global id: keys are contiguous
        # per-island lo is its first row's lo (sorted); hi is the
        # island's running cummax at its last row
        run_max = pd.Series(hi).groupby(island).cummax().to_numpy()
        ends = np.r_[np.flatnonzero(new_island)[1:] - 1, len(lo) - 1]
        isl_lo = lo[new_island]
        isl_hi = run_max[ends]
        head = p.iloc[np.flatnonzero(new_island)]
        out = head[keys].copy()
        out["__len"] = isl_hi - isl_lo
        agg = out.groupby(keys, sort=False)["__len"] \
                 .agg(["count", "sum"]).reset_index()
        agg = agg.rename(columns={"count": "n_islands", "sum": "covered"})
        n_iv = gk.size().reset_index(name="n_intervals")
        res = n_iv.merge(agg, on=keys)
        res["n_intervals"] = res["n_intervals"].astype("int64")
        res["n_islands"] = res["n_islands"].astype("int64")
        res["covered"] = res["covered"].astype("int64")
        return res

    return grouped_apply(ds, keys, per_part,
                         num_partitions=num_partitions)


def approx_count_distinct_grouped(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    p: int = 12,
    out_name: str = "approx_distinct",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Per-group HyperLogLog distinct count — the grouped sibling of
    :func:`approx_count_distinct` for 100-TB distinct-users-per-key
    questions where an exact per-group distinct would shuffle every
    row. Per batch only NONZERO (key, register, rho) partials leave
    (≤ groups×2^p rows, independent of input size); a grouped max
    merges registers; the estimator pass is fully vectorized across
    keys (np.add.at over key codes — no per-group Python). Linear
    counting below 2.5m per group, bias-corrected harmonic mean above;
    relative error ≈ 1.04/√m (~1.6% at p=12)."""
    keys = list(keys)
    m = 1 << p

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _key_hash(df[[col]], [col]).astype(np.uint64)
        idx, rho = _hll_rho(h, p)
        g = df[keys].copy()
        g["__reg"] = idx
        g["__rho"] = rho
        return (g.groupby(keys + ["__reg"], sort=False)["__rho"]
                .max().reset_index())

    # the register merge sees (keys × 2^p × blocks) partial rows;
    # the default driver-collect merge is right while that product is
    # small (the grouped_agg rationale — one exchange cheaper), and
    # ``merge_partitions`` switches BOTH the max-merge and the
    # estimator to hash-partitioned when group count scales with the
    # corpus (set it at 100-TB cardinalities)
    merged = grouped_agg(
        ds.map_batches(partial, batch_format="pandas"),
        keys + ["__reg"], {"__rho": ("__rho", "max")},
        merge_partitions=merge_partitions,
    )

    def estimate(part: pd.DataFrame) -> pd.DataFrame:
        codes, uniq = pd.factorize(
            pd.util.hash_pandas_object(part[keys], index=False)
        )
        nk = len(uniq)
        pow2 = np.power(2.0, -part["__rho"].to_numpy(dtype=np.float64))
        sum_pow = np.zeros(nk)
        np.add.at(sum_pow, codes, pow2)
        nz = np.bincount(codes, minlength=nk)
        n_zero = m - nz
        alpha = 0.7213 / (1 + 1.079 / m)
        raw = alpha * m * m / (sum_pow + n_zero)
        lc = np.where(n_zero > 0,
                      m * np.log(m / np.maximum(n_zero, 1)), raw)
        est = np.where((raw <= 2.5 * m) & (n_zero > 0), lc, raw)
        first = ~pd.Series(codes).duplicated().to_numpy()
        out = part.loc[first, keys].reset_index(drop=True)
        out[out_name] = np.round(est[codes[first]]).astype("int64")
        return out

    return grouped_apply(merged, keys, estimate,
                         num_partitions=merge_partitions or 8)


def profile_table(
    ds: rd.Dataset,
    columns: Sequence[str],
    merge_partitions: int = 8,
) -> rd.Dataset:
    """ANALYZE-style column profiler: one row per column with
    ``n_rows``, ``n_nulls`` and exact ``n_distinct`` — the data-quality
    summary every ingest pipeline runs before trusting a new shard.

    Counts are one partial-agg pass (per batch per column, three int64s
    leave). Exact distincts melt each batch to per-batch-DEDUPED
    (column, value) rows — what leaves the map side is bounded by
    per-block distinct values, then a hash-partitioned final dedup +
    count. Values are rendered to strings ONLY as internal shuffle keys
    (never compared across engines, so formatting parity is
    irrelevant). At 100 TB swap the exact distinct for
    :func:`approx_count_distinct_grouped` over the same melted rows —
    the counts pass is already scale-free."""
    columns = list(columns)

    def count_partials(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "col": columns,
            "n_rows": np.int64(len(df)),
            "n_nulls": [int(df[c].isna().sum()) for c in columns],
        })

    counts = grouped_agg(
        ds.map_batches(count_partials, batch_format="pandas"),
        ["col"],
        {"n_rows": ("n_rows", "sum"), "n_nulls": ("n_nulls", "sum")},
    )

    def melt_distinct(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for c in columns:
            u = df[c].dropna().unique()
            outs.append(pd.DataFrame({
                "col": c, "__v": pd.Series(u).astype(str)}))
        return pd.concat(outs, ignore_index=True)

    melted = ds.map_batches(melt_distinct, batch_format="pandas")
    uniq = distinct(melted, ["col", "__v"],
                    merge_partitions=merge_partitions)
    ndist = grouped_agg(uniq, ["col"],
                        {"n_distinct": ("__v", "count")})

    # LEFT merge: a column with zero non-null values has no melted
    # rows, but the profile (like the SQL twin) must still report it
    # with n_distinct = 0
    merged = counts.to_pandas().merge(ndist.to_pandas(), on="col",
                                      how="left")
    merged["n_distinct"] = merged["n_distinct"].fillna(0)
    for c in ("n_rows", "n_nulls", "n_distinct"):
        merged[c] = merged[c].astype("int64")
    return rd.from_pandas(merged.sort_values("col")
                          .reset_index(drop=True))


def session_transitions(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    type_col: str,
    gap_seconds: float = 1800.0,
    order_col: str | None = None,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Within-session event-transition counts (the Markov/clickstream
    matrix): consecutive events of the same ``key`` ordered by
    (``ts_col``, ``order_col``) form a (from_type, to_type) transition
    unless the gap exceeds ``gap_seconds`` (the `sessionize` boundary
    rule). ``order_col`` breaks timestamp ties deterministically so
    both engines see the same ordering.

    ONE key-hash exchange co-locates each key's events; in-partition
    everything is a mergesort + shift (no per-session Python). Only
    per-partition (from, to) partial counts leave — ≤ |event-type|²
    rows per partition regardless of input size."""
    order = [key, ts_col] + ([order_col] if order_col else [])
    gap_us = int(gap_seconds * 1e6)

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame({
                "from_type": pd.Series(dtype=object),
                "to_type": pd.Series(dtype=object),
                "n": pd.Series(dtype="int64")})
        kv, f, t = _transition_pairs(part, key, ts_col, type_col,
                                     gap_us, order)
        g = (pd.DataFrame({"from_type": f, "to_type": t})
             .groupby(["from_type", "to_type"], sort=False)
             .size().reset_index(name="n"))
        g["n"] = g["n"].astype("int64")
        return g

    partials = grouped_apply(ds, [key], per_part,
                             num_partitions=num_partitions)
    return grouped_agg(partials, ["from_type", "to_type"],
                       {"n": ("n", "sum")})


def _transition_pairs(part, key, ts_col, type_col, gap_us, order):
    """Shared session-transition kernel: sorted shift over a key-hash
    partition → (key values, from types, to types) of every
    within-session consecutive pair."""
    p = part.sort_values(order, kind="mergesort")
    kv = p[key].to_numpy()
    same_key = kv == np.roll(kv, 1)
    same_key[0] = False
    ts = p[ts_col].to_numpy(dtype="datetime64[us]").view("int64")
    gaps = ts - np.roll(ts, 1)
    ok = same_key & (gaps <= gap_us)
    types = p[type_col].to_numpy()
    return kv[ok], np.roll(types, 1)[ok], types[ok]


def transition_surprisal(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    type_col: str,
    gap_seconds: float = 1800.0,
    order_col: str | None = None,
    num_partitions: int = 32,
    round_dp: int = 6,
) -> rd.Dataset:
    """Per-key mean negative log-likelihood of the key's within-session
    transitions under the CORPUS transition model (row-normalized
    `session_transitions` counts) — the sequence-anomaly score: a user
    whose clickstream follows rare transitions scores high (bot/fraud
    triage, session-quality weighting).

    Two passes over the events: one fits the model (≤ |types|² counter
    rows — model-constant, collected and row-normalized driver-side),
    one rescans per key with the log-prob map broadcast BY VALUE (it is
    tiny) and emits only (key, surprisal, n_transitions). Surprisal
    rounds to ``round_dp`` before the hash so ln() summation order
    cannot flip a value. Keys with zero transitions are absent
    (matching the SQL twin's inner join)."""
    counts = session_transitions(
        ds, key, ts_col, type_col, gap_seconds=gap_seconds,
        order_col=order_col, num_partitions=num_partitions,
    ).to_pandas()
    tot = counts.groupby("from_type")["n"].transform("sum")
    model = pd.DataFrame({
        "__f": counts["from_type"], "__t": counts["to_type"],
        "__lp": np.log(counts["n"].to_numpy(dtype="float64")
                       / tot.to_numpy(dtype="float64"))})
    order = [key, ts_col] + ([order_col] if order_col else [])
    gap_us = int(gap_seconds * 1e6)

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        if len(part) == 0:
            return pd.DataFrame({
                key: pd.Series(dtype="int64"),
                "surprisal": pd.Series(dtype="float64"),
                "n_transitions": pd.Series(dtype="int64")})
        kv, f, t = _transition_pairs(part, key, ts_col, type_col,
                                     gap_us, order)
        if len(kv) == 0:
            return pd.DataFrame({
                key: pd.Series(dtype=part[key].dtype),
                "surprisal": pd.Series(dtype="float64"),
                "n_transitions": pd.Series(dtype="int64")})
        # vectorized model lookup: every observed pair is in the model
        # (it was fit on the same stream), so the inner merge is total
        m = (pd.DataFrame({key: kv, "__f": f, "__t": t})
             .merge(model, on=["__f", "__t"]))
        m["__nll"] = -m["__lp"]
        g = (m.groupby(key, sort=False)["__nll"]
             .agg(["mean", "size"]).reset_index())
        return pd.DataFrame({
            key: g[key],
            "surprisal": np.round(g["mean"].to_numpy(), round_dp),
            "n_transitions": g["size"].astype("int64")})

    return grouped_apply(ds, [key], per_part,
                         num_partitions=num_partitions)


def _mg_reduce_grouped(
    vc: pd.DataFrame, keys: list[str], k: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Vectorized per-key Misra–Gries reduction of a (keys, item, cnt)
    counter table: subtract each key's (k+1)-th largest count from all
    its counters, drop non-positive. Returns (reduced counters,
    per-key decrements) — no Python loop over keys or items."""
    vc = vc.sort_values(keys + ["cnt"],
                        ascending=[True] * len(keys) + [False],
                        kind="mergesort")
    pos = vc.groupby(keys, sort=False).cumcount()
    decs = (vc[pos == k][keys + ["cnt"]]
            .rename(columns={"cnt": "dec"}))
    if len(decs):
        vc = vc.merge(decs, on=keys, how="left")
        vc["dec"] = vc["dec"].fillna(0).astype("int64")
        vc["cnt"] = vc["cnt"] - vc["dec"]
        vc = vc[vc["cnt"] > 0].drop(columns="dec")
    else:
        decs = pd.DataFrame({k_: pd.Series(dtype=vc[k_].dtype)
                             for k_ in keys} | {
                                 "dec": pd.Series(dtype="int64")})
    return vc, decs


def freq_sketch_grouped(
    ds: rd.Dataset,
    keys: Sequence[str],
    col: str,
    k: int = 64,
    batch_size: int = 131072,
    num_partitions: int = 8,
) -> rd.Dataset:
    """Per-group Misra–Gries frequent items — `freq_sketch` with a key:
    top ``col`` values per group over item sets too large for an exact
    per-group count (top pages per language, top hosts per TLD). Per
    batch at most k (key, item, cnt) rows plus one (key, n, dec)
    bookkeeping row leave PER KEY (the reduction is one vectorized
    sort + grouped cumcount — no Python loop over keys); the merge
    co-partitions by key and applies the same reduction once more.

    MG guarantees hold PER KEY (Δ_key ≤ n_key/(k+1)): est_lb ≤ true ≤
    est_lb + delta, and any item with true count > delta is present —
    machine-checked by the `freq_sketch_grouped_audit` oracle. Output
    rows carry each key's n and delta so consumers can bound errors
    without a second pass.

    NULL items are dropped from the stream explicitly (not counted in
    ``n`` either): pandas groupby would silently exclude them from the
    counters while the per-key ``n`` still counted them, inflating the
    error bound's denominator, and a surviving null-like item row would
    be misclassified as bookkeeping by the ``notna`` split in merge."""
    keys = list(keys)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[col].notna()]
        if len(df) == 0:
            return pd.DataFrame()
        vc = (df.groupby(keys + [col], sort=False).size()
              .reset_index(name="cnt"))
        vc["cnt"] = vc["cnt"].astype("int64")
        n_b = df.groupby(keys, sort=False).size().reset_index(name="n")
        vc, decs = _mg_reduce_grouped(vc, keys, k)
        meta = n_b.merge(decs, on=keys, how="left")
        meta["dec"] = meta["dec"].fillna(0).astype("int64")
        meta["n"] = meta["n"].astype("int64")
        meta[col] = None
        meta["cnt"] = np.int64(0)
        vc = vc.assign(n=np.int64(0), dec=np.int64(0))
        return pd.concat([vc, meta[vc.columns]], ignore_index=True)

    part = ds.map_batches(partial, batch_format="pandas",
                          batch_size=batch_size)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame()
        meta = (g.groupby(keys, sort=False)[["n", "dec"]].sum()
                .reset_index())
        items = g[g[col].notna()]
        vc = (items.groupby(keys + [col], sort=False)["cnt"].sum()
              .reset_index())
        vc = vc[vc["cnt"] > 0]
        vc, decs2 = _mg_reduce_grouped(vc, keys, k)
        meta = meta.merge(decs2.rename(columns={"dec": "dec2"}),
                          on=keys, how="left")
        meta["delta"] = (meta["dec"]
                         + meta["dec2"].fillna(0)).astype("int64")
        out = vc.merge(meta[keys + ["n", "delta"]], on=keys)
        out = out.rename(columns={"cnt": "est_lb", col: "item"})
        out["est_ub"] = (out["est_lb"] + out["delta"]).astype("int64")
        out["n"] = out["n"].astype("int64")
        return out[keys + ["item", "est_lb", "est_ub", "n", "delta"]]

    return grouped_apply(part, keys, merge,
                         num_partitions=num_partitions)


def _hll_rho(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, leading-zero rank) per uint64 hash — the HLL
    update, shared by the set-algebra path."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)
    rho = np.ones(len(h), dtype=np.int64)
    mask = np.uint64(1) << np.uint64(63)
    cur = rest
    for _ in range(64 - p):
        zero_top = (cur & mask) == 0
        if not zero_top.any():
            break
        rho[zero_top] += 1
        cur = cur << np.uint64(1)
        cur[~zero_top] = mask
    return idx, rho


def _hll_registers(ds: rd.Dataset, col: str, p: int) -> np.ndarray:
    """Dense 2^p register array for a column — per batch only nonzero
    (reg, rho) rows leave; the max-merge is a grouped_agg; the dense
    fill happens once on ≤ 2^p rows (model-constant driver state)."""
    m = 1 << p

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _key_hash(df[[col]], [col]).astype(np.uint64)
        idx, rho = _hll_rho(h, p)
        reg = np.zeros(m, dtype=np.int64)
        np.maximum.at(reg, idx, rho)
        nz = np.flatnonzero(reg)
        return pd.DataFrame({"__reg": nz.astype("int64"),
                             "__rho": reg[nz].astype("int64")})

    # max-merge combine before the driver (the countmin_sketch
    # pattern): each combine batch folds many blocks' nonzero register
    # rows into ≤ 2^p, so the collect is blocks/16-compressed
    def combine(df: pd.DataFrame) -> pd.DataFrame:
        reg = np.zeros(m, dtype=np.int64)
        np.maximum.at(reg, df["__reg"].to_numpy(), df["__rho"].to_numpy())
        nz = np.flatnonzero(reg)
        return pd.DataFrame({"__reg": nz.astype("int64"),
                             "__rho": reg[nz].astype("int64")})

    t = (ds.map_batches(partial, batch_format="pandas")
         .map_batches(combine, batch_format="pandas",
                      batch_size=16 * m)
         .to_pandas())
    reg = np.zeros(m, dtype=np.int64)
    if len(t):
        np.maximum.at(reg, t["__reg"].to_numpy(), t["__rho"].to_numpy())
    return reg


def _hll_estimate(reg: np.ndarray) -> float:
    m = len(reg)
    n_zero = int((reg == 0).sum())
    alpha = 0.7213 / (1 + 1.079 / m)
    raw = alpha * m * m / np.power(2.0, -reg.astype(np.float64)).sum()
    if raw <= 2.5 * m and n_zero:
        return m * np.log(m / n_zero)
    return raw


def hll_set_ops(
    ds_a: rd.Dataset,
    ds_b: rd.Dataset,
    col: str,
    p: int = 12,
) -> pd.DataFrame:
    """HLL sketch ALGEBRA over two streams: |A|, |B|, |A∪B| (register-
    wise max — the lossless HLL merge), and |A∩B| by inclusion-
    exclusion. The union estimate has plain HLL error; the intersection
    inherits the absolute errors of all three terms, so its RELATIVE
    error blows up when |A∩B| ≪ |A∪B| — callers needing small sharp
    intersections should count them directly. Each stream contributes
    only its nonzero registers (≤ 2^p rows); nothing about either
    stream's size reaches the driver."""
    ra = _hll_registers(ds_a, col, p)
    rb = _hll_registers(ds_b, col, p)
    ea, eb = _hll_estimate(ra), _hll_estimate(rb)
    eu = _hll_estimate(np.maximum(ra, rb))
    return pd.DataFrame({
        "est_a": np.array([round(ea)], dtype="int64"),
        "est_b": np.array([round(eb)], dtype="int64"),
        "est_union": np.array([round(eu)], dtype="int64"),
        "est_intersection": np.array(
            [round(max(ea + eb - eu, 0.0))], dtype="int64"),
    })


def countmin_sketch(
    ds: rd.Dataset,
    col: str,
    depth: int = 4,
    width: int = 2048,
    batch_size: int = 131072,
) -> tuple[np.ndarray, int]:
    """Count-min sketch (Cormode & Muthukrishnan 2005) — the mergeable
    point-query frequency sibling of the Misra–Gries top-k: a
    depth×width counter matrix answering "how often did value v occur"
    with ONE-SIDED error (estimate ≥ true count always; overshoot
    ≤ 2n/width with probability ≥ 1 − 2^−depth per query). Per batch
    the batch's exact value counts scatter-add into a local matrix and
    only the depth×width ints leave (model-constant, input-size-free);
    matrices merge by plain addition — the textbook mergeable-summary
    shape. Returns (matrix, n_total).

    Point queries: :func:`countmin_query`. The estimate depends only on
    hash collisions, NOT batch boundaries — unlike MG the sketch is
    parallelism-invariant."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()
        vals = vc.index.to_numpy()
        cnts = vc.to_numpy(dtype="int64")
        base = pd.util.hash_array(vals).astype(np.uint64)
        M = np.zeros((depth, width), dtype=np.int64)
        for d in range(depth):
            np.add.at(M[d], _cm_hash(base, d, width), cnts)
        return pd.DataFrame({
            "row": np.repeat(np.arange(depth, dtype="int64"), width),
            "colx": np.tile(np.arange(width, dtype="int64"), depth),
            "cnt": M.reshape(-1),
            "n": np.int64(len(df)),
        })

    # combine layer before the driver: each combine batch scatter-adds
    # ~16 block matrices into one (dense np.add.at — no groupby), so
    # the driver collects depth×width×(blocks/16) rows instead of
    # every block's matrix (the 100-TB block-count hazard); n sums are
    # linear so batching cannot change the total
    def combine(df: pd.DataFrame) -> pd.DataFrame:
        idx = (df["row"].to_numpy() * width
               + df["colx"].to_numpy())
        M = np.zeros(depth * width, dtype=np.int64)
        nv = np.zeros(depth * width, dtype=np.int64)
        np.add.at(M, idx, df["cnt"].to_numpy())
        np.add.at(nv, idx, df["n"].to_numpy())
        return pd.DataFrame({
            "row": np.repeat(np.arange(depth, dtype="int64"), width),
            "colx": np.tile(np.arange(width, dtype="int64"), depth),
            "cnt": M, "n": nv})

    part = (ds.map_batches(partial, batch_format="pandas",
                           batch_size=batch_size)
            .map_batches(combine, batch_format="pandas",
                         batch_size=16 * depth * width)
            .to_pandas())
    if len(part) == 0:
        return np.zeros((depth, width), dtype=np.int64), 0
    n_total = int(part["n"].sum()) // (depth * width)
    idx = part["row"].to_numpy() * width + part["colx"].to_numpy()
    M = np.zeros(depth * width, dtype=np.int64)
    np.add.at(M, idx, part["cnt"].to_numpy())
    return M.reshape(depth, width), int(n_total)


def _cm_hash(base: np.ndarray, d: int, width: int) -> np.ndarray:
    """Per-depth cell index from a shared base hash: splitmix-style
    avalanche of (base XOR depth-salt). pd.util.hash_array's hash_key
    only salts OBJECT arrays, so depth rows must be decorrelated here
    explicitly or numeric columns would hash identically in every row."""
    # salt in Python ints: a scalar np.uint64 multiply would emit an
    # overflow RuntimeWarning (array ops wrap silently, scalars warn)
    x = base ^ np.uint64((0x9E3779B97F4A7C15 * (d + 1)) & (2**64 - 1))
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    x = x ^ (x >> np.uint64(33))
    return (x % np.uint64(width)).astype(np.int64)


def countmin_query(
    M: np.ndarray, values: np.ndarray,
) -> np.ndarray:
    """Point-query a count-min matrix: min over rows of the hashed
    cells — vectorized over the whole query array. ``values`` must have
    the same dtype family the sketch was built from (the base hash is
    dtype-sensitive)."""
    depth, width = M.shape
    base = pd.util.hash_array(np.asarray(values)).astype(np.uint64)
    est = np.full(len(base), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(depth):
        est = np.minimum(est, M[d, _cm_hash(base, d, width)])
    return est


def sessionize_incremental(
    events: rd.Dataset,
    state: rd.Dataset | None,
    key: str,
    ts_col: str,
    gap_seconds: float = 1800.0,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Chunked (streaming-ingest) sessionization with carried state —
    `sessionize` for a pipeline that lands events in time-ordered
    chunks: each call processes one chunk given the per-key state of
    all previous chunks and returns the NEW state, which doubles as
    the running per-key session stats (key, last_ts, n_sessions,
    n_events). Folding chunks is EXACTLY the batch `sessionize` of the
    concatenation (same strict-> gap rule, int-µs arithmetic; pinned
    by pytest and the `sessionize_incremental` oracle query).

    Precondition (the streaming contract): no event in this chunk
    predates an already-processed event OF THE SAME KEY. State and
    chunk co-partition by key hash — one exchange per chunk, state
    never aggregates on the driver; at 100 TB the state Dataset is
    user-cardinality and stays distributed (write it to parquet
    between chunks like the crawl's seen-state snapshots)."""
    gap_us = int(gap_seconds * 1e6)

    def tag_ev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key: df[key], ts_col: df[ts_col],
            "n_sessions": np.int64(0), "n_events": np.int64(0),
            "__st": np.int8(0)})

    def tag_st(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            key: df[key], ts_col: df["last_ts"],
            "n_sessions": df["n_sessions"].astype("int64"),
            "n_events": df["n_events"].astype("int64"),
            "__st": np.int8(1)})

    both = events.map_batches(tag_ev, batch_format="pandas")
    if state is not None:
        both = both.union(state.map_batches(tag_st,
                                            batch_format="pandas"))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        st = g[g["__st"] == 1]
        ev = g[g["__st"] == 0]
        out_cols = [key, "last_ts", "n_sessions", "n_events"]
        if len(ev) == 0:
            out = st.rename(columns={ts_col: "last_ts"})[out_cols]
            return out.reset_index(drop=True)
        p = ev.sort_values([key, ts_col], kind="mergesort")
        kv = p[key].to_numpy()
        ts_i = p[ts_col].to_numpy(dtype="datetime64[us]").view("int64")
        same = kv == np.roll(kv, 1)
        same[0] = False
        breaks_in = same & ((ts_i - np.roll(ts_i, 1)) > gap_us)
        chunk = pd.DataFrame({key: kv, "__brk": breaks_in,
                              "__ts": ts_i})
        agg = (chunk.groupby(key, sort=False)
               .agg(__brk=("__brk", "sum"), n_ev=("__ts", "size"),
                    first_ts=("__ts", "first"), last_ts=("__ts", "max"))
               .reset_index())
        stm = (st[[key, ts_col, "n_sessions", "n_events"]]
               .rename(columns={ts_col: "__state_ts"}))
        m = agg.merge(stm, on=key, how="left")
        has_state = m["n_sessions"].notna()
        state_ts = (m["__state_ts"].to_numpy(dtype="datetime64[us]")
                    .view("int64"))
        new_first = np.where(
            has_state,
            (m["first_ts"].to_numpy() - state_ts) > gap_us, True)
        m["n_sessions"] = (m["n_sessions"].fillna(0).astype("int64")
                           + m["__brk"].astype("int64")
                           + new_first.astype("int64"))
        m["n_events"] = (m["n_events"].fillna(0).astype("int64")
                         + m["n_ev"].astype("int64"))
        m["last_ts"] = m["last_ts"].astype("datetime64[us]")
        out = m[out_cols]
        # keys with state but no events this chunk pass through
        idle = st[~st[key].isin(agg[key])]
        if len(idle):
            out = pd.concat(
                [out, idle.rename(columns={ts_col: "last_ts"})[out_cols]],
                ignore_index=True)
        return out.reset_index(drop=True)

    return grouped_apply(both, [key], per_part,
                         num_partitions=num_partitions)


def ols_fit(
    ds: rd.Dataset,
    x_cols: Sequence[str],
    y_col: str,
) -> tuple[np.ndarray, int]:
    """Multi-feature ordinary least squares via distributed normal
    equations — `grouped_linreg` beyond one regressor: each block
    contributes only the (d+1)×(d+1) Gram matrix XᵀX and Xᵀy partials
    (d = features + intercept; model-constant floats per block,
    input-size-free), partials sum-merge, and the driver solves the
    tiny system. Returns (coefficients [intercept, *x_cols], n).

    The solve uses the EXPLICIT closed form (matrix inverse of the
    summed Gram), so an engine replaying the same sums — e.g. a SQL
    oracle with Cramer's rule — reproduces coefficients up to float
    reassociation of the sums; round before comparing. Conditioning
    caveat: raw power sums, like `grouped_corr`'s — center features
    upstream if |mean| ≫ spread."""
    x_cols = list(x_cols)
    d = len(x_cols) + 1

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        X = np.column_stack(
            [np.ones(len(df))]
            + [df[c].to_numpy(dtype="float64") for c in x_cols])
        y = df[y_col].to_numpy(dtype="float64")
        g = X.T @ X
        v = X.T @ y
        return pd.DataFrame({
            "i": np.repeat(np.arange(d), d + 1),
            "j": np.tile(np.arange(d + 1), d),
            "v": np.concatenate(
                [np.concatenate([g[i], [v[i]]]) for i in range(d)]),
            "n": np.int64(len(df)),
        })

    p = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(p["n"].sum()) // (d * (d + 1))
    M = (p.groupby(["i", "j"], sort=True)["v"].sum()
         .to_numpy().reshape(d, d + 1))
    G, v = M[:, :d], M[:, d]
    coef = np.linalg.solve(G, v)
    return coef, n


def logreg_fit(
    ds: rd.Dataset,
    x_cols: Sequence[str],
    y_col: str,
    iters: int = 8,
    ridge: float = 1e-6,
) -> tuple[np.ndarray, int]:
    """Logistic regression via distributed IRLS (Newton-Raphson) — the
    classification sibling of `ols_fit` for learned quality/spam
    filters over corpus features: each iteration broadcasts the d-float
    coefficient vector and runs ONE map_batches pass; a block emits
    only the (d×d) weighted Gram XᵀWX and XᵀWz partials (W = μ(1−μ),
    z the working response), the driver solves the tiny system. A
    small ridge keeps the solve defined under separation. Deterministic
    (β₀ = 0, fixed iteration count); identical at any parallelism up
    to float reassociation of the partial sums — certified by the
    `logreg_audit` single-node parity oracle."""
    x_cols = list(x_cols)
    d = len(x_cols) + 1
    beta = np.zeros(d)

    ds = ds.materialize()  # iterative: pin the working set once
    for _ in range(max(1, iters)):
        ref = ray.put(beta)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            b = resolve_broadcast(ref)
            X = np.column_stack(
                [np.ones(len(df))]
                + [df[c].to_numpy(dtype="float64") for c in x_cols])
            y = df[y_col].to_numpy(dtype="float64")
            eta = X @ b
            mu = 1.0 / (1.0 + np.exp(-eta))
            w = np.maximum(mu * (1.0 - mu), 1e-12)
            z = eta + (y - mu) / w
            Xw = X * w[:, None]
            g = X.T @ Xw
            v = Xw.T @ z
            return pd.DataFrame({
                "i": np.repeat(np.arange(d), d + 1),
                "j": np.tile(np.arange(d + 1), d),
                "v": np.concatenate(
                    [np.concatenate([g[i], [v[i]]]) for i in range(d)]),
                "n": np.int64(len(df)),
            })

        p = ds.map_batches(partial, batch_format="pandas").to_pandas()
        n = int(p["n"].sum()) // (d * (d + 1))
        M = (p.groupby(["i", "j"], sort=True)["v"].sum()
             .to_numpy().reshape(d, d + 1))
        G, v = M[:, :d] + ridge * np.eye(d), M[:, d]
        beta = np.linalg.solve(G, v)
    return beta, n


def logreg_fit_local(
    X: np.ndarray, y: np.ndarray, iters: int = 8, ridge: float = 1e-6,
) -> np.ndarray:
    """Single-node IRLS with the identical arithmetic (the parity
    reference for `logreg_fit` audits)."""
    d = X.shape[1]
    beta = np.zeros(d)
    for _ in range(max(1, iters)):
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(mu * (1.0 - mu), 1e-12)
        z = eta + (y - mu) / w
        Xw = X * w[:, None]
        beta = np.linalg.solve(X.T @ Xw + ridge * np.eye(d), Xw.T @ z)
    return beta


def roc_auc(
    ds: rd.Dataset,
    score_col: str,
    pos_col: str,
    score_dp: int = 6,
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Distributed ROC-AUC of a scalar score against a binary label —
    the evaluation step for the learned curation filters (`logreg_fit`,
    `naive_bayes_classify`). Mann–Whitney with tie correction:

        AUC = [ Σ_s np(s)·cumneg_below(s) + ½·np(s)·nn(s) ] / (Np·Nn)

    Scale shape: scores round to ``score_dp`` FIRST (both engines), so
    the reduced (score → n_pos, n_neg) table is bounded by
    score_range·10^dp — a model-constant cardinality independent of the
    corpus, like a sketch — not by the row count. Per-batch counts
    shrink each block to its distinct scores before ONE ``grouped_agg``
    exchange; the ordered tie-corrected scan runs once over that
    bounded table. Emits one row (n_pos, n_neg, auc@6dp). Raise
    ``score_dp`` only with a matching cardinality budget."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        sc = np.round(df[score_col].to_numpy(dtype="float64"), score_dp)
        pos = df[pos_col].to_numpy(dtype="int64")
        g = (pd.DataFrame({"sc": sc, "np": pos, "nn": 1 - pos})
             .groupby("sc", sort=False).sum().reset_index())
        return g

    g = grouped_agg(
        ds.map_batches(part, batch_format="pandas"),
        ["sc"], {"np": ("np", "sum"), "nn": ("nn", "sum")},
        merge_partitions=merge_partitions,
    )

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("sc", kind="mergesort")
        npos = df["np"].to_numpy(dtype="float64")
        nneg = df["nn"].to_numpy(dtype="float64")
        cb = np.concatenate([[0.0], np.cumsum(nneg)[:-1]])
        num = float(np.sum(npos * cb + 0.5 * npos * nneg))
        tp, tn = float(npos.sum()), float(nneg.sum())
        return pd.DataFrame({
            "n_pos": np.array([tp], dtype="int64"),
            "n_neg": np.array([tn], dtype="int64"),
            "auc": [round(num / (tp * tn), 6)] if tp and tn else [np.nan],
        })

    # the scan input is the bounded reduced table (see docstring) — one
    # task, same contract as the sketch estimators
    return g.repartition(1).map_batches(scan, batch_format="pandas",
                                        batch_size=None)


def average_precision(
    ds: rd.Dataset,
    score_col: str,
    pos_col: str,
    score_dp: int = 6,
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Distributed average precision (area under the precision-recall
    curve, step interpolation) — the eval metric that matters when
    positives are rare (a 1%-spam corpus scores 0.99 accuracy on the
    constant classifier; AP stays honest). Tie-aware threshold form:
    per distinct score s taken in DESC order,

        AP = Σ_s (np(s)/Np) · [ cum_tp(s) / cum_all(s) ]

    i.e. each threshold block contributes its recall increment times
    the precision AT that threshold (all tied rows enter together —
    the deterministic convention both engines replay; single-row
    blocks reduce to the classic Σ P@k / Np).

    Same scale shape as :func:`roc_auc`: scores round to ``score_dp``
    FIRST, so the reduced (score → n_pos, n_neg) table is bounded by
    score_range·10^dp — model-constant, like a sketch — and per-batch
    counts shrink each block before ONE ``grouped_agg`` exchange; the
    ordered scan runs once over that bounded table. Emits one row
    (n_pos, n_neg, ap@6dp)."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        sc = np.round(df[score_col].to_numpy(dtype="float64"), score_dp)
        pos = df[pos_col].to_numpy(dtype="int64")
        g = (pd.DataFrame({"sc": sc, "np": pos, "nn": 1 - pos})
             .groupby("sc", sort=False).sum().reset_index())
        return g

    g = grouped_agg(
        ds.map_batches(part, batch_format="pandas"),
        ["sc"], {"np": ("np", "sum"), "nn": ("nn", "sum")},
        merge_partitions=merge_partitions,
    )

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("sc", ascending=False, kind="mergesort")
        npos = df["np"].to_numpy(dtype="float64")
        nneg = df["nn"].to_numpy(dtype="float64")
        ctp = np.cumsum(npos)
        call = np.cumsum(npos + nneg)
        tp, tn = float(npos.sum()), float(nneg.sum())
        ap = float(np.sum(npos * (ctp / call)) / tp) if tp else np.nan
        return pd.DataFrame({
            "n_pos": np.array([tp], dtype="int64"),
            "n_neg": np.array([tn], dtype="int64"),
            "ap": [round(ap, 6)] if tp else [np.nan],
        })

    return g.repartition(1).map_batches(scan, batch_format="pandas",
                                        batch_size=None)


def grouped_ewma(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    alpha: float = 0.5,
    out_name: str = "ewma",
    num_partitions: int = 32,
    round_dp: int = 6,
) -> rd.Dataset:
    """Per-key exponentially weighted moving average in (ts, tiebreak)
    order — the streaming smoother (y₀ = x₀; yₜ = (1−α)·yₜ₋₁ + α·xₜ,
    the ``adjust=False`` recurrence). Inherently a sequential fold per
    key, so the distribution axis is the KEY: hash-partition by key
    (ONE exchange), one vectorized sort + C-backed ``groupby.ewm`` per
    partition — no Python loop over rows or groups, and no global sort.

    α must be exactly representable such that (1−α)+α == 1.0 in float64
    (e.g. 0.5, 0.25) for the result to be bit-reproducible against an
    engine computing the textbook recurrence directly — pandas
    normalizes by the accumulated weight (1−α)+α, which differs from
    1.0 for α like 0.3 by one ulp."""

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tiebreak], kind="mergesort")
        ew = (g.groupby(key, sort=False)[val_col]
              .ewm(alpha=alpha, adjust=False).mean()
              .reset_index(drop=True).to_numpy())
        # α=0.5 folds produce dyadic rationals that land EXACTLY on
        # decimal .5 ties, where numpy's banker's rounding and SQL
        # round() (half away from zero) disagree — mirror std::round
        p = 10.0 ** round_dp
        ew = np.copysign(np.floor(np.abs(ew) * p + 0.5), ew) / p
        return g.assign(**{out_name: ew})

    return grouped_apply(ds, [key], per_partition,
                         num_partitions=num_partitions)


def brown_smoothing(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    alpha: float = 0.5,
    num_partitions: int = 32,
    round_dp: int = 6,
) -> rd.Dataset:
    """Per-key Brown double exponential smoothing — the level+trend
    streaming forecaster (the step up from :func:`grouped_ewma` when a
    series drifts: a single EWMA lags a trending signal by a constant;
    Brown's method cancels that lag). Two CHAINED adjust=False EWMAs,
    s′ = ewm(x), s″ = ewm(s′), then the classic identities

        level = 2·s′ − s″        trend = α/(1−α) · (s′ − s″)

    so the one-step-ahead forecast is level + trend. Same distribution
    axis as ``grouped_ewma``: key-hash partition (ONE exchange), one
    vectorized sort + two C-backed ``groupby.ewm`` scans per partition
    — no new numerics, no Python loop over rows or groups.

    α constraints are inherited from ``grouped_ewma`` (use α with
    (1−α)+α == 1.0 exactly, e.g. 0.5, for cross-engine bit parity);
    outputs are rounded half-away-from-zero at ``round_dp`` to mirror
    SQL ``round()`` on the dyadic-rational ties α=0.5 produces."""

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tiebreak], kind="mergesort")
        s1 = (g.groupby(key, sort=False)[val_col]
              .ewm(alpha=alpha, adjust=False).mean()
              .reset_index(drop=True).to_numpy())
        g2 = g.reset_index(drop=True).assign(__s1=s1)
        s2 = (g2.groupby(key, sort=False)["__s1"]
              .ewm(alpha=alpha, adjust=False).mean()
              .reset_index(drop=True).to_numpy())
        level = 2.0 * s1 - s2
        trend = alpha / (1.0 - alpha) * (s1 - s2)
        p = 10.0 ** round_dp
        level = np.copysign(np.floor(np.abs(level) * p + 0.5), level) / p
        trend = np.copysign(np.floor(np.abs(trend) * p + 0.5), trend) / p
        return g2.drop(columns="__s1").assign(level=level, trend=trend)

    return grouped_apply(ds, [key], per_partition,
                         num_partitions=num_partitions)


def _order_bins(ids: np.ndarray, coarse_bits: int) -> np.ndarray:
    """Coarse hash bin per id under the engine's order hash: integer
    ids take the Knuth multiplicative hash (SQL-replayable), string ids
    (crawl URLs) the same 64-bit content hash the split assignment
    uses. Top ``coarse_bits`` of the 32-bit value."""
    two32 = np.uint64(4294967296)
    if ids.dtype.kind in "iu":
        h = (ids.astype(np.uint64) % two32) * np.uint64(2654435761) % two32
    else:
        h = pd.util.hash_array(ids.astype(object)).astype(np.uint64) % two32
    return (h >> np.uint64(32 - coarse_bits)).astype(np.int64)


def hash_shard_bin_counts(t: pa.Table, id_col: str,
                          coarse_bits: int = 12) -> pa.Table:
    """:func:`balanced_hash_shards`' count kernel: (``__bin``, ``__n``)
    for every non-empty coarse hash bin of ``t``'s ids."""
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    bins = _order_bins(ids, coarse_bits)
    c = np.bincount(bins, minlength=1 << coarse_bits)
    nz = np.flatnonzero(c)
    return pa.table({"__bin": nz.astype("int64"),
                     "__n": c[nz].astype("int64")})


def hash_shard_lut(bins: np.ndarray, counts: np.ndarray, num_shards: int,
                   coarse_bits: int = 12) -> np.ndarray:
    """bin -> shard map from the global bin counts:
    ``shard(bin) = cum_before(bin)·S // n``."""
    full = np.zeros(1 << coarse_bits, dtype=np.int64)
    full[bins] = counts
    total = int(full.sum())
    if total == 0:
        return np.zeros(1 << coarse_bits, dtype=np.int64)
    before = np.concatenate([[0], np.cumsum(full)[:-1]])
    return before * np.int64(num_shards) // np.int64(total)


def hash_shard_assign(t: pa.Table, lut: np.ndarray, id_col: str,
                      coarse_bits: int = 12,
                      out_name: str = "shard") -> pa.Table:
    """:func:`balanced_hash_shards`' assign kernel: append each row's
    shard from the bin -> shard map."""
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    bins = _order_bins(ids, coarse_bits)
    return t.append_column(out_name, pa.array(lut[bins], type=pa.int64()))


def balanced_hash_shards(
    ds: rd.Dataset,
    id_col: str,
    num_shards: int,
    out_name: str = "shard",
    coarse_bits: int = 12,
) -> rd.Dataset:
    """Deterministic BALANCED shard assignment from the global hash
    order — the partitioner for a reproducible training-data shuffle
    and the shard key a resumable export writes. Conceptually rows
    order by (hash(id), id); shard k receives one contiguous range of
    that order, sized to ~n/num_shards. There is NO data exchange:

    1. one partial-count pass bins rows by the top ``coarse_bits`` of
       the hash — a model-constant 2^bits count table, prefix-summed on
       the driver like a sketch;
    2. the bin→shard map (``shard(bin) = cum_before(bin)·S // n``)
       ships by value and a second streaming pass appends the column.

    Same id ⇒ same shard at any parallelism and on any rerun (a resumed
    export can skip finished ``shard=`` dirs and every surviving row
    still lands where the first run put it), and shard sizes deviate
    from n/S by at most one bin's population. Arrow end-to-end so
    nested columns (the export's interleaved ``segments``) ride
    untouched. A naive ``random_shuffle`` + ``repartition`` gives
    neither the determinism nor the skip-finished contract."""
    counts = grouped_agg(
        ds.map_batches(partial(hash_shard_bin_counts, id_col=id_col,
                               coarse_bits=coarse_bits),
                       batch_format="pyarrow"),
        ["__bin"], {"n": ("__n", "sum")},
    ).to_pandas()
    lut = hash_shard_lut(counts["__bin"].to_numpy(),
                         counts["n"].to_numpy(), num_shards, coarse_bits)
    lref = [ray.put(lut)]

    def assign(t: pa.Table) -> pa.Table:
        return hash_shard_assign(t, resolve_broadcast(lref[0]), id_col,
                                 coarse_bits, out_name)

    return ds.map_batches(assign, batch_format="pyarrow")


def _pareto_reduce(df: pd.DataFrame, c0: str, c1: str) -> pd.DataFrame:
    """Exact 2-D Pareto frontier (minimize both) of ONE DataFrame —
    vectorized: sort by (c0, c1); a row survives iff it attains the min
    c1 at its c0 value AND every strictly smaller c0 has strictly
    larger min-c1 (prefix-min over distinct c0). Duplicate (c0, c1)
    frontier points all survive (mutually non-dominating)."""
    if df.empty:
        return df
    d = df.sort_values([c0, c1], kind="mergesort")
    v0 = d[c0].to_numpy()
    v1 = d[c1].to_numpy()
    new_run = np.r_[False, v0[1:] != v0[:-1]]
    run_id = np.cumsum(new_run)
    starts = np.flatnonzero(np.r_[True, new_run[1:]])
    min_at = v1[starts]
    prefix = np.r_[np.inf, np.minimum.accumulate(min_at)[:-1]]
    keep = (v1 == min_at[run_id]) & (v1 < prefix[run_id])
    return d.loc[keep]


def pareto_frontier(
    ds: rd.Dataset,
    c0: str,
    c1: str,
    num_bins: int = 1024,
) -> rd.Dataset:
    """Distributed 2-D Pareto frontier (minimize ``c0`` and ``c1``) —
    the skyline operator. Three stages, NO row-scale shuffle:

    1. per-block local frontier (dominated rows never leave their
       block) — materialized once, so the survivors feed both later
       stages;
    2. a model-constant bin prune: per-block partial min(c1) over
       ``num_bins`` linear bins of c0 (range from two aggregates on the
       already-tiny survivors), driver prefix-min, broadcast-by-value
       filter removing every row dominated from a strictly lower bin.
       The prefix staircase computed on local frontiers EQUALS the one
       on raw data (the global min-c1 row of any c0 range is on its
       block's frontier), so the prune is exact;
    3. the frontier-sized remainder reduces exactly on the driver.

    Columns must be non-null numerics. Returns the frontier rows with
    their original columns."""
    loc = ds.map_batches(
        partial(_pareto_reduce, c0=c0, c1=c1), batch_format="pandas",
    ).materialize()
    # one combined pass for the bin range (ds.min + ds.max would launch
    # two scan jobs over the same survivors)
    rng = loc.map_batches(
        lambda d: pd.DataFrame({"mn": [d[c0].min()], "mx": [d[c0].max()]}),
        batch_format="pandas").to_pandas()
    lo = rng["mn"].min() if len(rng) else None
    hi = rng["mx"].max() if len(rng) else None
    if lo is not None and not pd.isna(lo) and hi > lo:
        width = (float(hi) - float(lo)) / num_bins

        def bin_of(arr: np.ndarray) -> np.ndarray:
            return np.minimum(
                ((arr.astype("float64") - float(lo)) / width)
                .astype(np.int64),
                num_bins - 1)

        def bin_mins(d: pd.DataFrame) -> pd.DataFrame:
            b = bin_of(d[c0].to_numpy())
            return (pd.DataFrame({"__bin": b, "__m": d[c1].to_numpy()})
                    .groupby("__bin", as_index=False)["__m"].min())

        mins = grouped_agg(
            loc.map_batches(bin_mins, batch_format="pandas"),
            ["__bin"], {"m": ("__m", "min")},
        ).to_pandas()
        full = np.full(num_bins, np.inf)
        full[mins["__bin"].to_numpy()] = mins["m"].to_numpy()
        prefix = np.r_[np.inf, np.minimum.accumulate(full)[:-1]]

        def prune(d: pd.DataFrame) -> pd.DataFrame:
            b = bin_of(d[c0].to_numpy())
            return d.loc[d[c1].to_numpy() < prefix[b]]

        loc = loc.map_batches(prune, batch_format="pandas")
    final = _pareto_reduce(loc.to_pandas(), c0, c1)
    return rd.from_pandas(final.reset_index(drop=True))


def frequent_pairs(
    ds: rd.Dataset,
    basket_col: str,
    item_col: str,
    min_support: int = 2,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Market-basket frequent item PAIRS with exact support — the
    a-priori first rung (co-occurrence mining). One basket-hash
    exchange co-locates each basket; a partition dedups
    (basket, item), emits its per-basket canonical pairs (item_a <
    item_b) with the run-arithmetic kernel (no Python loop over
    baskets) and PRE-AGGREGATES pair counts before anything else
    moves; a grouped sum (auto-switching merge) finishes, filtered to
    ``support >= min_support``. Per-basket fanout is s·(s−1)/2 — cap
    basket size upstream when it is unbounded.

    The partial-pair exchange is the cost center (pair cardinality ~
    corpus pairs, barely compressed by pre-agg): pairs ship as ONE
    packed int64 key (a<<32 | b, reinterpreted) with np.unique counts,
    halving shuffled bytes vs two id columns + a pandas groupby
    (measured 2.7 s → 1.7 s at sf0.1). Requires item ids in
    [0, 2^32) — checked per batch, fail-stop."""
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([basket_col, item_col])
        p = g.sort_values([basket_col, item_col], kind="mergesort")
        key = p[basket_col].to_numpy()
        val = p[item_col].to_numpy()
        if len(val) and (not np.issubdtype(val.dtype, np.integer)
                         or val.min() < 0 or val.max() >= 4294967296):
            raise ValueError(
                "frequent_pairs: item ids must be integers in [0, 2^32) "
                "for packed-pair keys")
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        lens = np.diff(np.r_[starts, len(key)])
        pos = np.arange(len(key)) - np.repeat(starts, lens)
        j = np.repeat(np.arange(len(key)), pos)
        seg_starts = np.cumsum(pos) - pos
        off = np.arange(pos.sum(), dtype=np.int64) \
            - np.repeat(seg_starts, pos)
        i = j - pos[j] + off
        pk = ((val[i].astype(np.uint64) << np.uint64(32))
              | val[j].astype(np.uint64))
        u, c = np.unique(pk, return_counts=True)
        return pd.DataFrame({"pk": u.view(np.int64),
                             "__n": c.astype("int64")})

    partials = grouped_apply(ds, [basket_col], per_part,
                             num_partitions=num_partitions)
    agg = grouped_agg(partials, ["pk"], {"support": ("__n", "sum")})

    def unpack(d: pd.DataFrame) -> pd.DataFrame:
        d = d[d["support"] >= min_support]
        pk = d["pk"].to_numpy().view(np.uint64)
        return pd.DataFrame({
            "item_a": (pk >> np.uint64(32)).astype("int64"),
            "item_b": (pk & np.uint64(4294967295)).astype("int64"),
            "support": d["support"].astype("int64")})

    return agg.map_batches(unpack, batch_format="pandas")


def mutual_info(
    ds: rd.Dataset,
    col_a: str,
    col_b: str,
) -> pd.DataFrame:
    """Mutual information (bits) between two categorical columns — the
    feature-selection / drift score. One pass of per-block contingency
    partials (≤ |A|·|B| rows per block, model-constant like a sketch),
    a grouped sum, and the driver folds the tiny joint table to
    I(A;B) = Σ p_ab · log2(p_ab / (p_a·p_b)) in sorted (a, b) term
    order (deterministic float accumulation). Returns one row
    (mi_bits, n). Assumes |A|·|B| is model-scale (categories, not
    ids)."""
    def partial_counts(d: pd.DataFrame) -> pd.DataFrame:
        return (d.groupby([col_a, col_b]).size()
                .reset_index(name="__n"))

    joint = grouped_agg(
        ds.map_batches(partial_counts, batch_format="pandas"),
        [col_a, col_b], {"n": ("__n", "sum")},
    ).to_pandas().sort_values([col_a, col_b])
    n = float(joint["n"].sum())
    na = joint.groupby(col_a)["n"].transform("sum").to_numpy()
    nb = joint.groupby(col_b)["n"].transform("sum").to_numpy()
    nj = joint["n"].to_numpy().astype("float64")
    mi = float(np.sum((nj / n) * np.log2(nj * n / (na * nb))))
    return pd.DataFrame({"mi_bits": [round(mi, 6)],
                         "n": [np.int64(n)]})


def chi2_test(
    ds: rd.Dataset,
    col_a: str,
    col_b: str,
) -> pd.DataFrame:
    """Pearson chi-square test of independence between two categorical
    columns — the drift / dependence gate that pairs with
    :func:`mutual_info` (same model-constant contingency exchange).
    Absent (a, b) cells contribute their expectation exactly:
    χ² = Σ_observed (n−e)²/e + (N − Σ_observed e), since a zero-observed
    cell's term collapses to e. Returns one row (chi2, dof, n)."""
    def partial_counts(d: pd.DataFrame) -> pd.DataFrame:
        return (d.groupby([col_a, col_b]).size()
                .reset_index(name="__n"))

    joint = grouped_agg(
        ds.map_batches(partial_counts, batch_format="pandas"),
        [col_a, col_b], {"n": ("__n", "sum")},
    ).to_pandas().sort_values([col_a, col_b])
    n = float(joint["n"].sum())
    na = joint.groupby(col_a)["n"].transform("sum").to_numpy(
        dtype="float64")
    nb = joint.groupby(col_b)["n"].transform("sum").to_numpy(
        dtype="float64")
    nj = joint["n"].to_numpy(dtype="float64")
    ex = na * nb / n
    chi2 = float(((nj - ex) ** 2 / ex).sum() + (n - ex.sum()))
    dof = (joint[col_a].nunique() - 1) * (joint[col_b].nunique() - 1)
    return pd.DataFrame({"chi2": [round(chi2, 6)],
                         "dof": [np.int64(dof)],
                         "n": [np.int64(n)]})


def validate_rules(
    ds: rd.Dataset,
    rules: Mapping[str, "callable"],
) -> rd.Dataset:
    """Deequ / Great-Expectations-style data validation at pipeline
    scale: ``rules`` maps rule name → vectorized predicate over a
    pandas batch returning a boolean VIOLATION mask. One streaming pass
    emits |rules| partial rows per block (model-constant, like a
    sketch); a grouped sum folds them. Output one row per rule:
    (rule, violations, n_rows) — n_rows is the full scan count so a
    downstream gate can threshold on violation RATES without a second
    pass."""
    names = sorted(rules)

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "rule": names,
            "__v": [np.int64(np.asarray(rules[nm](df)).sum())
                    for nm in names],
            "__n": np.int64(len(df)),
        })

    partials = ds.map_batches(per_block, batch_format="pandas")
    return grouped_agg(partials, ["rule"],
                       {"violations": ("__v", "sum"),
                        "n_rows": ("__n", "sum")})


def time_weighted_avg(
    ds: rd.Dataset,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak_col: str,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Per-key time-weighted (step-function) average — the TWAP /
    sensor-mean semantics: each observation holds until the key's next
    event, so its weight is that gap in microseconds; the key's last
    event closes the window with zero weight. ONE key-hash exchange;
    in-partition mergesort + shift, no per-key loop. ``tiebreak_col``
    pins which of two same-timestamp rows carries the gap (the SQL twin
    orders its lead() identically). Keys whose total weight is zero
    (single event, or all events simultaneous) emit no row. 6-dp
    rounding before the result leaves the partition."""
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tiebreak_col], kind="mergesort")
        k = g[key].to_numpy()
        t = (g[ts_col].to_numpy().astype("datetime64[us]")
             .astype("int64"))
        v = g[val_col].to_numpy(dtype="float64")
        nxt_same = np.r_[k[1:] == k[:-1], False]
        gap = np.where(nxt_same, np.r_[t[1:] - t[:-1], 0], 0) \
            .astype("float64")
        agg = (pd.DataFrame({key: k, "__num": v * gap, "__den": gap})
               .groupby(key, as_index=False).sum())
        agg = agg[agg["__den"] > 0]
        return pd.DataFrame({
            key: agg[key],
            "twap": (agg["__num"] / agg["__den"]).round(6),
        })

    return grouped_apply(ds, [key], per_part,
                         num_partitions=num_partitions)


def upsert_latest(
    base: rd.Dataset,
    delta: rd.Dataset,
    key_col: str,
    ver_col: str,
    deleted_col: str | None = None,
    num_partitions: int = 32,
) -> rd.Dataset:
    """CDC merge — ``MERGE INTO`` latest-wins semantics: apply a change
    log to a base table in ONE key-hash exchange. Each key keeps the
    row with the highest ``ver_col``; version ties break toward the
    delta (the change log is newer by definition). With
    ``deleted_col``, a winning delta row flagged deleted removes the
    key entirely (tombstone). Inputs must share a schema (the base is
    padded with ``deleted_col=False`` if absent); per-partition work is
    one mergesort + drop_duplicates, no per-key loop — the incremental
    table-maintenance pass a daily-snapshot pipeline runs instead of
    recomputing the table."""
    cols = list(base.schema().names)
    if deleted_col and deleted_col not in cols:
        base = base.map_batches(
            lambda d: d.assign(**{deleted_col: False}),
            batch_format="pandas")
        cols = cols + [deleted_col]

    def tag(pri):
        def f(d: pd.DataFrame) -> pd.DataFrame:
            return d[cols].assign(__pri=np.int8(pri))
        return f

    u = base.map_batches(tag(0), batch_format="pandas").union(
        delta.map_batches(tag(1), batch_format="pandas"))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ver_col, "__pri"], kind="mergesort")
        g = g.drop_duplicates(key_col, keep="last")
        if deleted_col:
            g = g[~g[deleted_col].astype(bool)]
        return g.drop(columns="__pri")

    return grouped_apply(u, [key_col], per_part,
                         num_partitions=num_partitions)


def throttle_events(
    ds: rd.Dataset,
    keys: Sequence[str],
    ts_col: str,
    tiebreak_col: str,
    min_gap_us: int,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Consecutive near-duplicate suppression (stream throttle): an
    event is DROPPED when the same key's immediately preceding raw
    event (by ts, then ``tiebreak_col``) is closer than ``min_gap_us``
    — the double-fire / retry-storm cleaner. Gap is measured to the
    previous RAW event (lag semantics, SQL-replayable); a
    gap-to-last-KEPT debounce is inherently sequential per key and
    deliberately not this operator. ONE key-hash exchange,
    in-partition mergesort + shift, no per-key loop."""
    keys = list(keys)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + [ts_col, tiebreak_col],
                          kind="mergesort")
        kv = g[keys].astype(str).agg("\x1f".join, axis=1).to_numpy() \
            if len(keys) > 1 else g[keys[0]].to_numpy()
        t = (g[ts_col].to_numpy().astype("datetime64[us]")
             .astype("int64"))
        same = np.r_[False, kv[1:] == kv[:-1]]
        gap = np.r_[np.int64(0), t[1:] - t[:-1]]
        return g.loc[~(same & (gap < min_gap_us))]

    return grouped_apply(ds, keys, per_part,
                         num_partitions=num_partitions)


def countmin_join_size(
    ds_a: rd.Dataset,
    col_a: str,
    ds_b: rd.Dataset,
    col_b: str,
    depth: int = 4,
    width: int = 8192,
) -> tuple[int, int, int]:
    """Equi-join CARDINALITY estimate without running the join — the
    classic sketch inner product (AGMS / count-min, Cormode &
    Muthukrishnan 2005 §4.2): |A ⋈ B| = Σ_k a_k·b_k is estimated by
    min over depth rows of ⟨A_d, B_d⟩, where each side's count-min
    matrix is built in its own one-pass parallelism-invariant scan
    (`countmin_sketch` — only the depth×width matrix leaves). Hash
    collisions only ADD mass, so the estimate is one-sided
    (est ≥ true always); per row the expected overshoot is
    n_a·n_b/width, so min-over-depth lands within a small multiple of
    that with overwhelming probability. The query-optimizer /
    shuffle-planning primitive: decide broadcast vs partitioned join
    from two cheap scans. Returns (estimate, n_a, n_b)."""
    Ma, na = countmin_sketch(ds_a, col_a, depth=depth, width=width)
    Mb, nb = countmin_sketch(ds_b, col_b, depth=depth, width=width)
    est = min(int(np.dot(Ma[d].astype("float64"),
                         Mb[d].astype("float64"))) for d in range(depth))
    return est, na, nb


def welch_ttest(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    group_a,
    group_b,
) -> pd.DataFrame:
    """Welch's unequal-variance t-test between two cohorts — the A/B
    readout that completes the dependence trio with `mutual_info` /
    `chi2_test`. One streaming pass of per-cohort moment partials
    (n, Σv, Σv²) — six numbers per block — summed by `grouped_agg`;
    the driver folds the 2-row table to (t_stat, df) with the
    Welch–Satterthwaite correction. 6-dp rounding; sample variance
    (ddof=1) like SQL's var_samp."""
    def partials(d: pd.DataFrame) -> pd.DataFrame:
        m = d[d[group_col].isin([group_a, group_b])]
        v = m[val_col].to_numpy(dtype="float64")
        t = pd.DataFrame({group_col: m[group_col], "__n": np.float64(1.0),
                          "__s": v, "__ss": v * v})
        return t.groupby(group_col, as_index=False).sum()

    agg = grouped_agg(
        ds.map_batches(partials, batch_format="pandas"),
        [group_col], {"n": ("__n", "sum"), "s": ("__s", "sum"),
                      "ss": ("__ss", "sum")},
    ).to_pandas().set_index(group_col)

    def stats(g):
        n = float(agg.loc[g, "n"])
        m = agg.loc[g, "s"] / n
        var = (agg.loc[g, "ss"] - n * m * m) / (n - 1)
        return n, m, var

    na, ma, va = stats(group_a)
    nb, mb, vb = stats(group_b)
    se2 = va / na + vb / nb
    t = (ma - mb) / np.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return pd.DataFrame({
        "t_stat": [round(float(t), 6)], "df": [round(float(df), 6)],
        "mean_a": [round(float(ma), 6)], "mean_b": [round(float(mb), 6)],
        "n_a": [np.int64(na)], "n_b": [np.int64(nb)],
    })


def anova_f(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
) -> rd.Dataset:
    """One-way ANOVA F statistic across ALL cohorts — the k-group
    generalization of :func:`welch_ttest` (equal-variance form): does
    the metric differ across k experiment arms / event types at all,
    before pairwise tests. F = (SSB/(k−1)) / (SSW/(N−k)) from the
    classic sum decomposition, computed entirely from per-cohort
    moment partials (n, Σv, Σv²) — three numbers per cohort per
    block, one tiny ``grouped_agg`` merge, driver folds the k-row
    table. The SQL twin replays the identical sums; 6-dp rounding
    absorbs partial-sum reassociation. NULL values must be absent."""
    def partials(d: pd.DataFrame) -> pd.DataFrame:
        v = d[val_col].to_numpy(dtype="float64")
        t = pd.DataFrame({group_col: d[group_col],
                          "__n": np.float64(1.0), "__s": v, "__ss": v * v})
        return t.groupby(group_col, as_index=False).sum()

    agg = grouped_agg(
        ds.map_batches(partials, batch_format="pandas"),
        [group_col], {"n": ("__n", "sum"), "s": ("__s", "sum"),
                      "ss": ("__ss", "sum")},
    ).to_pandas().sort_values(group_col)
    k = len(agg)
    if k < 2:
        return rd.from_pandas(pd.DataFrame({
            "n_groups": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "f_stat": pd.Series([], dtype="float64"),
        }))
    n = agg["n"].to_numpy(dtype="float64")
    s = agg["s"].to_numpy(dtype="float64")
    ss = agg["ss"].to_numpy(dtype="float64")
    N = float(n.sum())
    grand = float(s.sum()) / N
    ssb = float((n * (s / n - grand) ** 2).sum())
    ssw = float((ss - s * s / n).sum())
    f = (ssb / (k - 1)) / (ssw / (N - k)) if ssw > 0 else float("nan")
    return rd.from_pandas(pd.DataFrame({
        "n_groups": [np.int64(k)], "n": [np.int64(N)], "f_stat": [f],
    }))


def huber_mean(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    rounds: int = 3,
    k: float = 1.345,
) -> rd.Dataset:
    """Per-group Huber M-estimator of location via ``rounds`` unrolled
    IRLS steps — the robust mean that downweights (not discards)
    outliers, between ``trimmed_mean`` (drops) and the plain mean
    (keeps). Scale is the HIGH-BREAKDOWN MAD (a contaminated σ never
    recovers — measured: 10% gross outliers leave the σ-scaled
    estimate 20+ units off after 3 rounds, the MAD-scaled one lands
    within 0.7): one grouped integer-cent HISTOGRAM exchange — its
    width is bounded by the value RANGE at cent resolution, not the
    corpus (the `dow_seasonality` bin-table argument) — gives n, Σc,
    the exact lower median and the exact MAD as pure integers, so
    m₀ = Σc/n and c = k·1.4826·MAD are deterministic doubles. Each
    IRLS round streams once, maps rows to w = min(1, c/|x−m|) against
    the tiny broadcast (m, c) table and emits per-group int64
    partials round(w·1e6), round(w·x_c·1e3) — weighted sums are
    float-order-free and m_{t+1} = (S·1000)/W is a deterministic
    scalar. Fixed round count keeps the SQL twin a finite CTE unroll.
    Values must be cent-representable; NULLs absent."""
    def cent_hist(d: pd.DataFrame) -> pd.DataFrame:
        c = np.rint(d[val_col].to_numpy(dtype="float64") * 100) \
            .astype("int64")
        t = pd.DataFrame({group_col: d[group_col], "c": c,
                          "__n": np.int64(1)})
        return t.groupby([group_col, "c"], as_index=False).sum()

    hist = grouped_agg(
        ds.map_batches(cent_hist, batch_format="pandas"),
        [group_col, "c"], {"cnt": ("__n", "sum")},
    ).to_pandas()

    rows = []
    for gval, h in hist.groupby(group_col, sort=True):
        h = h.sort_values("c")
        cv = h["c"].to_numpy(dtype="int64")
        ct = h["cnt"].to_numpy(dtype="int64")
        ng = int(ct.sum())
        sg = int((cv * ct).sum())
        kth = (ng + 1) // 2            # lower-median rank
        cum = np.cumsum(ct)
        med = int(cv[np.searchsorted(cum, kth)])
        adf = (pd.DataFrame({"ad": np.abs(cv - med), "cnt": ct})
               .groupby("ad", as_index=False).sum().sort_values("ad"))
        cum2 = np.cumsum(adf["cnt"].to_numpy(dtype="int64"))
        mad = int(adf["ad"].to_numpy(dtype="int64")[
            np.searchsorted(cum2, kth)])
        rows.append((gval, ng, sg, med, mad))
    g0 = pd.DataFrame(rows, columns=[group_col, "n", "s", "med",
                                     "mad"])
    n = g0["n"].to_numpy(dtype="float64")
    s = g0["s"].to_numpy(dtype="float64")
    m = s / n                                   # cents
    ch = k * 1.4826 * g0["mad"].to_numpy(dtype="float64")
    groups = g0[group_col].to_numpy()

    for _ in range(rounds):
        mm = dict(zip(groups, m))
        cc = dict(zip(groups, ch))

        def w_partials(d: pd.DataFrame, mm=mm, cc=cc) -> pd.DataFrame:
            c = np.rint(d[val_col].to_numpy(dtype="float64") * 100) \
                .astype("int64").astype("float64")
            mv = d[group_col].map(mm).to_numpy(dtype="float64")
            cv = d[group_col].map(cc).to_numpy(dtype="float64")
            ad = np.abs(c - mv)
            w = np.where(ad <= cv, 1.0, cv / ad)
            return pd.DataFrame({
                group_col: d[group_col],
                "__w": np.round(w * 1e6).astype("int64"),
                "__wx": np.round(w * c * 1e3).astype("int64")})

        r = grouped_agg(
            ds.map_batches(w_partials, batch_format="pandas"),
            [group_col], {"W": ("__w", "sum"), "S": ("__wx", "sum")},
        ).to_pandas().sort_values(group_col).reset_index(drop=True)
        m = (r["S"].to_numpy(dtype="float64") * 1000.0
             / r["W"].to_numpy(dtype="float64"))

    return rd.from_pandas(pd.DataFrame({
        group_col: groups,
        "n": g0["n"].astype("int64"),
        "mean": np.round(s / n / 100.0, 6),
        "huber_mean": np.round(m / 100.0, 6)}))


def levene_w(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
) -> rd.Dataset:
    """Levene's test W (mean-centered) across all cohorts — the
    variance-homogeneity screen run BEFORE trusting :func:`anova_f`'s
    equal-variance assumption (unequal spreads inflate its false-positive
    rate). Pass 1: per-cohort means from (n, Σv) moment partials — a
    k-row table folded on the driver. Pass 2: every block maps rows to
    ``z = |v − mean_g|`` through the tiny broadcast mean dict and emits
    (n, Σz, Σz²) partials; W is then exactly the one-way F statistic on
    the z's. Both passes stream; nothing value-scale touches the driver.
    The SQL twin replays the identical mean join and sum decomposition;
    6-dp rounding absorbs partial-sum reassociation. NULLs must be
    absent from ``val_col``."""
    def mean_partials(d: pd.DataFrame) -> pd.DataFrame:
        v = d[val_col].to_numpy(dtype="float64")
        t = pd.DataFrame({group_col: d[group_col],
                          "__n": np.float64(1.0), "__s": v})
        return t.groupby(group_col, as_index=False).sum()

    means = grouped_agg(
        ds.map_batches(mean_partials, batch_format="pandas"),
        [group_col], {"n": ("__n", "sum"), "s": ("__s", "sum")},
    ).to_pandas()
    mu = dict(zip(means[group_col],
                  means["s"].to_numpy(dtype="float64")
                  / means["n"].to_numpy(dtype="float64")))

    def z_partials(d: pd.DataFrame) -> pd.DataFrame:
        v = d[val_col].to_numpy(dtype="float64")
        m = d[group_col].map(mu).to_numpy(dtype="float64")
        z = np.abs(v - m)
        t = pd.DataFrame({group_col: d[group_col],
                          "__n": np.float64(1.0), "__s": z, "__ss": z * z})
        return t.groupby(group_col, as_index=False).sum()

    agg = grouped_agg(
        ds.map_batches(z_partials, batch_format="pandas"),
        [group_col], {"n": ("__n", "sum"), "s": ("__s", "sum"),
                      "ss": ("__ss", "sum")},
    ).to_pandas().sort_values(group_col)
    k = len(agg)
    if k < 2:
        return rd.from_pandas(pd.DataFrame({
            "n_groups": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "w_stat": pd.Series([], dtype="float64"),
        }))
    n = agg["n"].to_numpy(dtype="float64")
    s = agg["s"].to_numpy(dtype="float64")
    ss = agg["ss"].to_numpy(dtype="float64")
    N = float(n.sum())
    grand = float(s.sum()) / N
    ssb = float((n * (s / n - grand) ** 2).sum())
    ssw = float((ss - s * s / n).sum())
    w = (ssb / (k - 1)) / (ssw / (N - k)) if ssw > 0 else float("nan")
    return rd.from_pandas(pd.DataFrame({
        "n_groups": [np.int64(k)], "n": [np.int64(N)], "w_stat": [w],
    }))


def kruskal_wallis(
    ds: rd.Dataset,
    group_col: str,
    val_col: str,
    coarse_bins: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Kruskal–Wallis H test — the rank-based (distribution-free)
    k-cohort comparison, with the standard tie correction
    ``H' = H / (1 − Σ(t³−t)/(N³−N))``. Built on
    :func:`_value_rank_exchange` with the cohort label riding as a
    passenger tie column (the `spearman_corr` trick — extra tie
    columns can't change a midrank): ONE exchange, after which each
    partition reduces to per-cohort (Σ midrank, n) partials plus one
    tie-cube scalar — equal values co-locate in one partition (the
    bin is a function of the value), so both the midranks and the
    per-value tie counts are exact with nothing value-scale on the
    driver. Midrank sums are exact halves in float64; the SQL twin
    replays the identical midrank window, so only the k-term and
    partition-count fold orders differ (≈1e-10 in H) — 6-dp rounded
    by the caller."""

    def part(g: pd.DataFrame, rank: np.ndarray, total: int) -> pd.DataFrame:
        v = g[val_col].to_numpy(dtype="float64")
        starts = np.flatnonzero(
            np.concatenate([[True], v[1:] != v[:-1]]))
        runlen = np.diff(np.concatenate([starts, [len(v)]])
                         ).astype("float64")
        mid = np.repeat(rank[starts] + (runlen - 1) / 2.0 + 1.0,
                        runlen.astype("int64"))  # 1-based midranks
        per = (pd.DataFrame({group_col: g[group_col].to_numpy(),
                             "R": mid})
               .groupby(group_col, as_index=False)
               .agg(R=("R", "sum"), n=("R", "size")))
        per["n"] = per["n"].astype("int64")
        tt = float((runlen ** 3 - runlen).sum())
        per["tt"] = np.r_[tt, np.zeros(len(per) - 1)]
        return per

    res = _value_rank_exchange(ds, val_col, [group_col], coarse_bins,
                               num_partitions, part)
    if res is None:
        return rd.from_pandas(pd.DataFrame({
            "n_groups": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "h_stat": pd.Series([], dtype="float64"),
        }))
    partials, total = res
    p = (partials.to_pandas()
         .groupby(group_col, as_index=False)
         .agg(R=("R", "sum"), n=("n", "sum"), tt=("tt", "sum"))
         .sort_values(group_col))
    N = float(total)
    h = 12.0 / (N * (N + 1.0)) * float(
        (p["R"].to_numpy() ** 2 / p["n"].to_numpy(dtype="float64")).sum()
    ) - 3.0 * (N + 1.0)
    c = 1.0 - float(p["tt"].sum()) / (N ** 3 - N)
    h_corr = h / c if c > 0 else float("nan")
    return rd.from_pandas(pd.DataFrame({
        "n_groups": [np.int64(len(p))], "n": [np.int64(N)],
        "h_stat": [h_corr],
    }))


def _value_rank_exchange(
    ds: rd.Dataset,
    col: str,
    tie_cols,
    coarse_bins: int,
    num_partitions: int,
    part_fn,
):
    """Shared skeleton of the exact value-rank family
    (:func:`equi_depth_histogram` and the rank kernels below): a
    global rank under ``(col, *tie_cols)`` WITHOUT a global sort —
    one min/max pass, one model-constant coarse value-bin count pass
    prefix-summed on the driver like a sketch, then one bin-hash
    exchange where each partition sorts its bins locally, adds the
    broadcast offsets for exact global ranks, and hands
    ``part_fn(g_sorted, rank, total)`` the result. Returns
    ``(partials_dataset, total_rows)`` or None when the input is
    empty. Only the 2^k count table ever sits on the driver; the data
    crosses the wire once (the bin exchange)."""
    tie_cols = list(tie_cols)
    cols = [col] + tie_cols

    # three consumers (min/max pass, bin-count pass, bin exchange) —
    # pin the projected columns once or each pass re-runs the read
    # (measured 13x instead of ~2.6x at 10x data before this)
    ds = ds.map_batches(lambda d: d[cols], batch_format="pandas")
    ds = ds.materialize()

    mm = grouped_agg(
        ds.map_batches(
            lambda d: pd.DataFrame({"__k": np.zeros(len(d), dtype="int64"),
                                    col: d[col]}),
            batch_format="pandas"),
        ["__k"], {"lo": (col, "min"), "hi": (col, "max")},
    ).to_pandas()
    if len(mm) == 0:
        return None
    vlo = float(mm["lo"].iloc[0])
    width = max(float(mm["hi"].iloc[0]) - vlo, 1e-300)

    def val_bin(v: np.ndarray) -> np.ndarray:
        b = ((v - vlo) / width * coarse_bins).astype("int64")
        return np.clip(b, 0, coarse_bins - 1)

    def keyed(d: pd.DataFrame) -> pd.DataFrame:
        return d[cols].assign(
            __bin=val_bin(d[col].to_numpy(dtype="float64")))

    with_bins = ds.map_batches(keyed, batch_format="pandas")

    counts = grouped_agg(
        with_bins.map_batches(
            lambda d: d[["__bin"]].assign(__one=np.int64(1)),
            batch_format="pandas"),
        ["__bin"], {"n": ("__one", "sum")},
    ).to_pandas().sort_values("__bin")
    total = int(counts["n"].sum())
    offs = np.zeros(coarse_bins, dtype="int64")
    offs[counts["__bin"].to_numpy()] = np.concatenate(
        [[0], np.cumsum(counts["n"].to_numpy())[:-1]])
    oref = ray.put(offs)
    orefs = [oref]

    def ranked(g: pd.DataFrame) -> pd.DataFrame:
        offs_ = resolve_broadcast(orefs[0])
        g = g.sort_values(["__bin"] + cols, kind="mergesort")
        bins = g["__bin"].to_numpy()
        n = len(g)
        starts = np.flatnonzero(
            np.concatenate([[True], bins[1:] != bins[:-1]]))
        runlen = np.diff(np.concatenate([starts, [n]]))
        within = np.arange(n, dtype=np.int64) - np.repeat(starts, runlen)
        rank = offs_[bins] + within
        return part_fn(g, rank, total)

    partials = grouped_apply(with_bins, ["__bin"], ranked,
                             num_partitions=num_partitions)
    return partials, total


def equi_depth_histogram(
    ds: rd.Dataset,
    col: str,
    tie_cols: Sequence[str],
    num_buckets: int = 8,
    coarse_bins: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Exact equi-depth histogram — ``num_buckets`` buckets of (near-)
    equal ROW COUNT with their value ranges, the optimizer/skew
    statistic an equi-WIDTH histogram (:`histogram` family) cannot
    give on skewed data. Bucket of a row = ``rank * B // n`` under the
    total order ``(col, *tie_cols)`` — exactly
    ``(row_number() OVER (ORDER BY col, ties) - 1) * B // count(*)``,
    so ties are impossible and the result is deterministic at any
    parallelism. Built on :func:`_value_rank_exchange` (global rank
    without a global sort); each partition pre-aggregates its
    per-bucket (n, lo, hi) partials, so only ≤ buckets × partitions
    rows reach the final tiny merge. Values must be numeric and
    non-null; ``tie_cols`` must make rows unique."""

    def to_buckets(g: pd.DataFrame, rank: np.ndarray,
                   total: int) -> pd.DataFrame:
        bucket = rank * num_buckets // total
        v = g[col].to_numpy(dtype="float64")
        agg = (pd.DataFrame({"bucket": bucket, "v": v})
               .groupby("bucket", sort=False)["v"]
               .agg(["size", "min", "max"]).reset_index())
        return pd.DataFrame({"bucket": agg["bucket"].astype("int64"),
                             "n": agg["size"].astype("int64"),
                             "lo": agg["min"], "hi": agg["max"]})

    res = _value_rank_exchange(ds, col, tie_cols, coarse_bins,
                               num_partitions, to_buckets)
    if res is None:
        return rd.from_pandas(pd.DataFrame({
            "bucket": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
            "lo": pd.Series([], dtype="float64"),
            "hi": pd.Series([], dtype="float64"),
        }))
    partials, _total = res
    out = partials.to_pandas()  # <= buckets x partitions rows
    return rd.from_pandas(
        out.groupby("bucket", sort=True).agg(
            n=("n", "sum"), lo=("lo", "min"), hi=("hi", "max"),
        ).reset_index())


def running_max_exchange(
    ds: rd.Dataset,
    order_col: str,
    value_col: str,
    part_fn,
    coarse_bins: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset | None:
    """Distributed ORDERED PREFIX-SCAN (running max) without a global
    sort — ``max(value) OVER (ORDER BY order_col ROWS UNBOUNDED
    PRECEDING)``, the watermark primitive of streaming replay: the
    running max of event time in ingestion order IS the watermark at
    each arrival. Same shape as :func:`_value_rank_exchange` but the
    driver-side model-constant table carries per-bin MAXes instead of
    counts: one min/max pass over ``order_col``, one per-bin
    max(value) partial pass, an exclusive prefix-max over the ≤ 2^k
    bins on the driver (broadcast once), then ONE bin exchange where
    each partition sorts its bins locally, cummaxes, and hands
    ``part_fn(g_sorted, running_max)`` the exact global prefix max per
    row. ``order_col`` must be numeric and unique (an ingestion
    sequence); ``value_col`` numeric. Returns None on empty input."""
    cols = [order_col, value_col]
    ds = ds.map_batches(lambda d: d[cols], batch_format="pandas")
    ds = ds.materialize()

    mm = grouped_agg(
        ds.map_batches(
            lambda d: pd.DataFrame({"__k": np.zeros(len(d), dtype="int64"),
                                    order_col: d[order_col]}),
            batch_format="pandas"),
        ["__k"], {"lo": (order_col, "min"), "hi": (order_col, "max")},
    ).to_pandas()
    if len(mm) == 0:
        return None
    vlo = float(mm["lo"].iloc[0])
    width = max(float(mm["hi"].iloc[0]) - vlo, 1e-300)

    def keyed(d: pd.DataFrame) -> pd.DataFrame:
        b = ((d[order_col].to_numpy(dtype="float64") - vlo)
             / width * coarse_bins).astype("int64")
        return d[cols].assign(__bin=np.clip(b, 0, coarse_bins - 1))

    with_bins = ds.map_batches(keyed, batch_format="pandas")

    binmax = grouped_agg(
        with_bins.map_batches(
            lambda d: d[["__bin", value_col]], batch_format="pandas"),
        ["__bin"], {"mx": (value_col, "max")},
    ).to_pandas().sort_values("__bin")
    # exclusive prefix max per bin; empty bins inherit their left max
    pref = np.full(coarse_bins, -np.inf)
    pref[binmax["__bin"].to_numpy()] = binmax["mx"].to_numpy(dtype="float64")
    pref = np.concatenate([[-np.inf], np.maximum.accumulate(pref)[:-1]])
    pref_ref = ray.put(pref)
    prefs = [pref_ref]

    def scanned(g: pd.DataFrame) -> pd.DataFrame:
        pref_ = resolve_broadcast(prefs[0])
        g = g.sort_values(["__bin", order_col], kind="mergesort")
        bins = g["__bin"].to_numpy()
        v = g[value_col].to_numpy(dtype="float64")
        # within-bin cummax, restarted at each bin boundary
        starts = np.flatnonzero(
            np.concatenate([[True], bins[1:] != bins[:-1]]))
        # cummax restarted at each bin boundary: seed every bin's first
        # row with its exclusive prefix max, then one global cummax is
        # exact (bins arrive sorted, pref is monotone nondecreasing)
        seeded = v.copy()
        seeded[starts] = np.maximum(seeded[starts], pref_[bins[starts]])
        wm = np.maximum.accumulate(seeded)
        return part_fn(g.drop(columns="__bin"), wm)

    return grouped_apply(with_bins, ["__bin"], scanned,
                         num_partitions=num_partitions)


def gini_coefficient(
    ds: rd.Dataset,
    col: str,
    tie_cols: Sequence[str],
    coarse_bins: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset:
    """EXACT Gini coefficient — the inequality / concentration statistic
    (how skewed is spend across customers, bytes across hosts, tokens
    across documents) via the closed rank form
    ``G = 2·Σ rn·x / (n·Σx) − (n+1)/n`` with ``rn`` the 1-based global
    rank under ``(col, *tie_cols)``. Built on
    :func:`_value_rank_exchange`, so there is NO global sort: each
    partition of the bin exchange reduces its rows to three scalars
    (Σ rn·x, Σx, n) and only ≤ num_partitions partial rows reach the
    driver. rn·x products stay well inside float64's exact-integer
    range for any realistic corpus slice, and the final quotient is
    rounded by the caller. Values must be numeric and non-null;
    ``tie_cols`` must make rows unique (determinism at any
    parallelism)."""

    def part(g: pd.DataFrame, rank: np.ndarray, total: int) -> pd.DataFrame:
        x = g[col].to_numpy(dtype="float64")
        swx = float(((rank + 1).astype("float64") * x).sum())
        return pd.DataFrame({"swx": [swx], "sx": [float(x.sum())],
                             "n": [np.int64(len(x))]})

    res = _value_rank_exchange(ds, col, tie_cols, coarse_bins,
                               num_partitions, part)
    if res is None:
        return rd.from_pandas(pd.DataFrame({
            "n": pd.Series([], dtype="int64"),
            "gini": pd.Series([], dtype="float64"),
        }))
    partials, total = res
    p = partials.to_pandas()  # <= num_partitions rows of 3 scalars
    n = float(total)
    gini = 2.0 * p["swx"].sum() / (n * p["sx"].sum()) - (n + 1.0) / n
    return rd.from_pandas(pd.DataFrame({"n": [np.int64(total)],
                                        "gini": [gini]}))


def spearman_corr(
    ds: rd.Dataset,
    xcol: str,
    ycol: str,
    id_cols: Sequence[str],
    coarse_bins: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset:
    """EXACT Spearman rank correlation between two numeric columns —
    the monotone-dependence statistic (robust to outliers and any
    monotone rescaling, unlike Pearson) a profiling pass runs between,
    e.g., document length and quality score. Spearman = Pearson on the
    columns' average global ranks, with SQL midrank tie semantics.

    Distributed shape: TWO :func:`_value_rank_exchange` passes and
    ZERO joins — no global sort, only the 2^k bin-count table on the
    driver. The first pass midranks ``xcol`` carrying ``ycol`` as a
    passenger tie column; the second midranks ``ycol`` over that
    output carrying ``__rx`` as the passenger (extra tie columns
    can't change a midrank — tie resolution averages out — so
    passengers ride the exchange free), and its ``part_fn`` reduces
    each partition straight to six Pearson moment partials (n, Σrx,
    Σry, Σrx², Σry², Σrx·ry); only ≤ partitions × 6 scalars reach the
    driver. Ranks are integers-or-halves, so every partial sum is
    exact in float64 up to ~9e15 (n ≲ 2^17 rows of rank² products).
    Average-rank offset (0- vs 1-based) cancels — correlation is
    shift-invariant. Values must be non-null; ``id_cols`` must make
    rows unique."""
    id_cols = list(id_cols)
    base = ds.map_batches(
        lambda d: d[[xcol, ycol] + id_cols], batch_format="pandas"
    ).materialize()

    def part_x(g: pd.DataFrame, rank: np.ndarray,
               total: int) -> pd.DataFrame:
        v = g[xcol].to_numpy(dtype="float64")
        starts = np.flatnonzero(
            np.concatenate([[True], v[1:] != v[:-1]]))
        runlen = np.diff(np.concatenate([starts, [len(v)]]))
        avg = np.repeat(rank[starts] + (runlen - 1) / 2.0, runlen)
        out = g[[ycol]].reset_index(drop=True)
        out["__rx"] = avg
        return out

    r1 = _value_rank_exchange(base, xcol, id_cols + [ycol],
                              coarse_bins, num_partitions, part_x)
    if r1 is None:
        return rd.from_pandas(pd.DataFrame({
            "n": pd.Series([], dtype="int64"),
            "spearman": pd.Series([], dtype="float64"),
        }))
    rxd, total = r1

    def part_y(g: pd.DataFrame, rank: np.ndarray,
               total_: int) -> pd.DataFrame:
        v = g[ycol].to_numpy(dtype="float64")
        starts = np.flatnonzero(
            np.concatenate([[True], v[1:] != v[:-1]]))
        runlen = np.diff(np.concatenate([starts, [len(v)]]))
        y = np.repeat(rank[starts] + (runlen - 1) / 2.0, runlen)
        x = g["__rx"].to_numpy(dtype="float64")
        return pd.DataFrame({
            "n": [np.int64(len(g))],
            "sx": [float(x.sum())], "sy": [float(y.sum())],
            "sxx": [float((x * x).sum())], "syy": [float((y * y).sum())],
            "sxy": [float((x * y).sum())],
        })

    r2 = _value_rank_exchange(rxd, ycol, ["__rx"],
                              coarse_bins, num_partitions, part_y)
    assert r2 is not None  # r1 was non-empty
    p = r2[0].to_pandas()
    n = float(p["n"].sum())
    sx, sy = p["sx"].sum(), p["sy"].sum()
    cov = n * p["sxy"].sum() - sx * sy
    varx = n * p["sxx"].sum() - sx * sx
    vary = n * p["syy"].sum() - sy * sy
    denom = float(np.sqrt(varx * vary))
    rho = cov / denom if denom > 0 else float("nan")
    return rd.from_pandas(pd.DataFrame({"n": [np.int64(n)],
                                        "spearman": [rho]}))


def _two_sample_bin_scan(
    ds: rd.Dataset,
    value_col: str,
    group_col: str,
    group_a,
    group_b,
    coarse_bins: int,
    num_partitions: int,
    part_fn,
):
    """Shared skeleton of the exact two-sample order statistics
    (:func:`ks_statistic`, :func:`mannwhitney_u`): per-cohort coarse
    value-bin counts prefix-summed on the driver (model-constant
    2x2^k table), one bin exchange, then ``part_fn(c, cum_a, cum_b,
    oa, ob, n_a, n_b)`` reduces each partition's distinct-value table
    (``c`` has columns __bin, v, ca, cb in (bin, value) order with
    within-bin cumulative cohort counts) to a scalar per-partition
    row. Returns (partials_df, n_a, n_b) or None when empty."""
    a_lab, b_lab = group_a, group_b

    def project(d: pd.DataFrame) -> pd.DataFrame:
        m = d[group_col].isin([a_lab, b_lab])
        d = d.loc[m]
        return pd.DataFrame({
            "v": d[value_col].astype("float64"),
            "a": (d[group_col] == a_lab).astype("int64"),
            "b": (d[group_col] == b_lab).astype("int64"),
        })

    pts = ds.map_batches(project, batch_format="pandas").materialize()

    mm = grouped_agg(
        pts.map_batches(
            lambda d: pd.DataFrame({"__k": np.zeros(len(d), dtype="int64"),
                                    "v": d["v"]}),
            batch_format="pandas"),
        ["__k"], {"lo": ("v", "min"), "hi": ("v", "max")},
    ).to_pandas()
    if len(mm) == 0:
        return None
    vlo = float(mm["lo"].iloc[0])
    width = max(float(mm["hi"].iloc[0]) - vlo, 1e-300)

    def val_bin(v: np.ndarray) -> np.ndarray:
        b = ((v - vlo) / width * coarse_bins).astype("int64")
        return np.clip(b, 0, coarse_bins - 1)

    binned = pts.map_batches(
        lambda d: d.assign(__bin=val_bin(d["v"].to_numpy())),
        batch_format="pandas")

    counts = grouped_agg(
        binned.map_batches(
            lambda d: d[["__bin", "a", "b"]], batch_format="pandas"),
        ["__bin"], {"ca": ("a", "sum"), "cb": ("b", "sum")},
    ).to_pandas().sort_values("__bin")
    n_a = int(counts["ca"].sum())
    n_b = int(counts["cb"].sum())
    offs_a = np.zeros(coarse_bins, dtype="int64")
    offs_b = np.zeros(coarse_bins, dtype="int64")
    bins_seen = counts["__bin"].to_numpy()
    offs_a[bins_seen] = np.concatenate(
        [[0], np.cumsum(counts["ca"].to_numpy())[:-1]])
    offs_b[bins_seen] = np.concatenate(
        [[0], np.cumsum(counts["cb"].to_numpy())[:-1]])
    oref = ray.put((offs_a, offs_b))
    orefs = [oref]

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        oa, ob = resolve_broadcast(orefs[0])
        c = (g.groupby(["__bin", "v"], sort=True)
             .agg(ca=("a", "sum"), cb=("b", "sum")).reset_index())
        cum_a = c.groupby("__bin", sort=False)["ca"].cumsum().to_numpy()
        cum_b = c.groupby("__bin", sort=False)["cb"].cumsum().to_numpy()
        return part_fn(c, cum_a, cum_b, oa, ob, n_a, n_b)

    parts = grouped_apply(binned, ["__bin"], reduce_part,
                          num_partitions=num_partitions).to_pandas()
    return parts, n_a, n_b


def ks_statistic(
    ds: rd.Dataset,
    value_col: str,
    group_col: str,
    group_a,
    group_b,
    coarse_bins: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset:
    """EXACT two-sample Kolmogorov-Smirnov statistic — the
    distribution-drift detector (did this cohort's value distribution
    shift?): D = max over sample points of |F_a(v) - F_b(v)|, the
    right-continuous empirical CDFs evaluated at every distinct value
    (where all the sup's candidates live). Returns one row
    ``(ks_d, n_a, n_b)``.

    A global CDF without a global sort — the same discipline as
    :func:`equi_depth_histogram` (see :func:`_two_sample_bin_scan`):
    the data crosses the wire once, only the model-constant bin count
    table and per-partition maxima reach the driver. The CDF quotients
    divide exact int counts by exact totals, so the float is identical
    to any SQL engine's — no rounding tolerance needed beyond display.
    """

    def part_max(c, cum_a, cum_b, oa, ob, n_a, n_b):
        bins = c["__bin"].to_numpy()
        fa = (oa[bins] + cum_a) / n_a
        fb = (ob[bins] + cum_b) / n_b
        d = np.abs(fa - fb)
        return pd.DataFrame({"d": [float(d.max()) if len(d) else 0.0]})

    res = _two_sample_bin_scan(ds, value_col, group_col, group_a,
                               group_b, coarse_bins, num_partitions,
                               part_max)
    if res is None:
        return rd.from_pandas(pd.DataFrame({
            "ks_d": pd.Series([], dtype="float64"),
            "n_a": pd.Series([], dtype="int64"),
            "n_b": pd.Series([], dtype="int64"),
        }))
    parts, n_a, n_b = res
    return rd.from_pandas(pd.DataFrame({
        "ks_d": [float(parts["d"].max())],
        "n_a": [np.int64(n_a)],
        "n_b": [np.int64(n_b)],
    }))


def mannwhitney_u(
    ds: rd.Dataset,
    value_col: str,
    group_col: str,
    group_a,
    group_b,
    coarse_bins: int = 4096,
    num_partitions: int = 32,
) -> rd.Dataset:
    """EXACT Mann-Whitney U — the rank-based two-sample test (does one
    cohort stochastically dominate the other?), the non-parametric
    sibling of :func:`welch_ttest` that heavy tails can't fool:
    U_a = sum over b-observations of (# a below) + ties/2. Computed from
    the same one-exchange cohort scan as :func:`ks_statistic` — for
    each distinct value, its b-count multiplies (a-count strictly
    below + half the tied a-count); per-partition partial sums (exact
    multiples of 0.5) combine on the driver. Returns one row
    ``(u_a, u_b, n_a, n_b)`` with U_a + U_b = n_a*n_b (asserted by the
    pytest against a quadratic reference).
    """

    def part_u(c, cum_a, cum_b, oa, ob, n_a, n_b):
        bins = c["__bin"].to_numpy()
        ca = c["ca"].to_numpy()
        cb = c["cb"].to_numpy()
        below_a = oa[bins] + cum_a - ca  # strictly below this value
        u = (cb * (below_a + 0.5 * ca)).sum()
        return pd.DataFrame({"u": [float(u)]})

    res = _two_sample_bin_scan(ds, value_col, group_col, group_a,
                               group_b, coarse_bins, num_partitions,
                               part_u)
    if res is None:
        return rd.from_pandas(pd.DataFrame({
            "u_a": pd.Series([], dtype="float64"),
            "u_b": pd.Series([], dtype="float64"),
            "n_a": pd.Series([], dtype="int64"),
            "n_b": pd.Series([], dtype="int64"),
        }))
    parts, n_a, n_b = res
    u_a = float(parts["u"].sum())
    return rd.from_pandas(pd.DataFrame({
        "u_a": [u_a],
        "u_b": [n_a * n_b - u_a],
        "n_a": [np.int64(n_a)],
        "n_b": [np.int64(n_b)],
    }))


def table_diff(
    base: rd.Dataset,
    new: rd.Dataset,
    key_cols: list[str],
    value_cols: list[str],
    num_partitions: int = 16,
) -> rd.Dataset:
    """Snapshot diff — the data-versioning primitive (Delta/Iceberg
    change-data-feed shape, and `upsert_latest`'s inverse: that applies
    a change log, this RECOVERS one from two table versions): emit
    (key, status) with status ∈ added / removed / changed, omitting
    unchanged rows (they dominate any real diff, so the output is
    delta-sized, not table-sized). Keys must be unique per side;
    ``value_cols`` compare by exact equality — for float columns that
    means byte-identical provenance (same upstream arithmetic), else
    round both sides first.

    Scale shape: both versions co-partition in ONE tagged-union
    key-hash exchange; each partition runs a single indicator merge +
    vectorized column compare, and only its added/removed/changed rows
    leave. Nothing key-scale ever reaches the driver."""

    def tag(flag: bool):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df[key_cols + value_cols].assign(__new=flag)
        return fn

    both = base.map_batches(tag(False), batch_format="pandas").union(
        new.map_batches(tag(True), batch_format="pandas"))

    def diff(part: pd.DataFrame) -> pd.DataFrame:
        b = part.loc[~part["__new"], key_cols + value_cols]
        n = part.loc[part["__new"], key_cols + value_cols]
        m = b.merge(n, on=key_cols, how="outer", indicator=True,
                    suffixes=("_b", "_n"))
        status = np.where(
            m["_merge"] == "right_only", "added",
            np.where(m["_merge"] == "left_only", "removed", "changed"))
        same = np.ones(len(m), dtype=bool)
        for c in value_cols:
            cb, cn = m[f"{c}_b"], m[f"{c}_n"]
            same &= (cb == cn) | (cb.isna() & cn.isna())
        keep = (m["_merge"] != "both") | ~same
        out = m.loc[keep, key_cols].copy()
        out["status"] = status[keep.to_numpy()]
        return out

    return grouped_apply(both, key_cols, diff,
                         num_partitions=num_partitions)


def _kmv_hash(v: np.ndarray) -> np.ndarray:
    """Murmur-finalizer avalanche of an int64 column to uniform uint64
    — the KMV order statistic's hash (deterministic, engine-free)."""
    x = v.astype(np.uint64)
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
    return x ^ (x >> np.uint64(33))


def kmv_sketch(ds: rd.Dataset, col: str, k: int = 1024) -> np.ndarray:
    """KMV / bottom-k distinct sketch — keep the k SMALLEST hash values
    ever seen (Bar-Yossef et al. 2002, the theta-sketch family): the
    third distinct-count sketch after HLL (`approx_count_distinct`) and
    exact `distinct`, and the one whose UNION sketch supports an
    UNBIASED intersection via the k-sample Jaccard — HLL's
    inclusion–exclusion amplifies error on small intersections, KMV's
    doesn't. Mergeable: bottom-k of a union = bottom-k of the
    concatenated sketches, so per-block partials (≤ k rows each, after
    a per-block dedup) truncate-and-coalesce exactly like ``topk``.
    Returns the sorted uint64 hash array (≤ k values)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(_kmv_hash(df[col].to_numpy(dtype="int64")))
        return pd.DataFrame({"h": h[:k].astype("uint64")})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    h = np.unique(parts["h"].to_numpy(dtype="uint64"))
    return h[:k]


def kmv_estimate(sketch: np.ndarray, k: int) -> float:
    """Distinct-count estimate from a bottom-k sketch: exact when the
    sketch never filled (fewer than k distinct hashes exist), else the
    classic (k−1)/U(h_k) with hashes mapped to (0, 1]."""
    if len(sketch) < k:
        return float(len(sketch))
    u = (float(sketch[k - 1]) + 1.0) / 2.0**64
    return (k - 1) / u


def resample_interp(
    ds: rd.Dataset,
    keys: Sequence[str],
    ts_col: str,
    val_col: str,
    freq_us: int,
    grid_col: str = "h",
    out_name: str = "value_interp",
    num_partitions: int = 16,
    round_dp: int = 6,
) -> rd.Dataset:
    """Time-grid resampling with LINEAR INTERPOLATION — the smooth
    sibling of :func:`resample_ffill` (ffill models step signals like
    configuration state; interpolation models continuous ones like
    metrics): each grid point between two observations takes

        v0 + (t − t0)·(v1 − v0)/(t1 − t0)

    with t0 = last event ≤ t and t1 = first event ≥ t (a grid point
    landing exactly on an event takes its value); points before a
    group's first event are NULL (the grid is floored so the leading
    edge can precede it), and the grid never extends past the last
    event so t1 always exists. Events sharing (group, ts) pre-reduce
    to max(value) — making both neighbors deterministic — mirrored by
    the oracle. Same distributed shape as ffill: ONE key-hash
    exchange, grid via repeat+arange, and both neighbor lookups are
    single ``searchsorted`` calls on the composite (group, time)
    axis. The interpolation is evaluated in the IDENTICAL operation
    order as the SQL twin; half-away rounding at ``round_dp``."""
    keys = list(keys)

    def per_part(part: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            **{k: part[k].iloc[:0] for k in keys},
            grid_col: pd.Series([], dtype="datetime64[us]"),
            out_name: pd.Series([], dtype="float64"),
        })
        if not len(part):
            return empty
        part = (part.groupby(keys + [ts_col], sort=False, as_index=False)
                [val_col].max())
        part = part.sort_values(keys + [ts_col],
                                kind="mergesort").reset_index(drop=True)
        ts = part[ts_col].to_numpy().astype("datetime64[us]").view("int64")
        gid = pd.MultiIndex.from_frame(part[keys]).factorize()[0] \
            if len(keys) > 1 else part[keys[0]].factorize()[0]
        gid = np.asarray(gid, dtype="int64")
        n_g = int(gid.max()) + 1
        starts = np.full(n_g, len(part), dtype="int64")
        np.minimum.at(starts, gid, np.arange(len(part)))
        lo = np.full(n_g, np.iinfo(np.int64).max)
        hi = np.full(n_g, np.iinfo(np.int64).min)
        np.minimum.at(lo, gid, ts)
        np.maximum.at(hi, gid, ts)
        lo = lo // freq_us * freq_us
        hi = hi // freq_us * freq_us
        sizes = (hi - lo) // freq_us + 1
        total = int(sizes.sum())
        g_gid = np.repeat(np.arange(n_g), sizes)
        offs = np.arange(total, dtype="int64") - np.repeat(
            np.cumsum(sizes) - sizes, sizes)
        g_ts = np.repeat(lo, sizes) + offs * freq_us
        t0ref = ts.min()
        span = int(max(ts.max(), g_ts.max()) - t0ref) + freq_us + 2
        if n_g * span >= np.iinfo(np.int64).max:
            raise ValueError(
                "resample_interp: group-count x time-span exceeds "
                "int64; raise num_partitions")
        comp_ev = gid * span + (ts - t0ref)
        comp_gr = g_gid * span + (g_ts - t0ref)
        i0 = np.searchsorted(comp_ev, comp_gr, side="right") - 1
        i1 = np.searchsorted(comp_ev, comp_gr, side="left")
        vals = part[val_col].to_numpy(dtype="float64")
        has_prev = i0 >= starts[g_gid]
        i0c = np.maximum(i0, 0)
        i1c = np.minimum(i1, len(part) - 1)
        t0v, t1v = ts[i0c].astype("float64"), ts[i1c].astype("float64")
        v0, v1 = vals[i0c], vals[i1c]
        exact_hit = comp_ev[i1c] == comp_gr   # grid point ON an event
        dt = t1v - t0v
        interp = np.where(
            exact_hit, v1,
            v0 + (g_ts - ts[i0c]).astype("float64") * (v1 - v0)
            / np.where(dt == 0, 1.0, dt))
        out = np.where(has_prev | exact_hit, interp, np.nan)
        p = 10.0 ** round_dp
        out = np.copysign(np.floor(np.abs(out) * p + 0.5), out) / p
        key_rows = part.iloc[starts[g_gid]][keys].reset_index(drop=True)
        return pd.DataFrame({
            **{k: key_rows[k] for k in keys},
            grid_col: g_ts.view("datetime64[us]"),
            out_name: out,
        })

    return grouped_apply(ds, keys, per_part,
                         num_partitions=num_partitions)
