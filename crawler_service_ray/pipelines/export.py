"""Training-data export: the end-to-end "curate a corpus to disk" pass.

Composes the oracle-checked curation kernels — quality/language scoring,
exact first-wins dedup, deterministic train/val/test assignment — and
writes hive-partitioned parquet (``split=…/lang_pred=…``) with an atomic
rename + manifest so reruns skip finished work. This is the consumer-side
analog of the reference's drain-to-JSONL endpoint
(`/root/reference/application.py:198-296`) reshaped for training
pipelines: partitioned columnar output instead of a paginated queue.

Two sources:
- :func:`export_corpus` — a documents parquet shard (scores computed
  here with the oracle-checked kernels);
- :func:`export_run` — a finished crawl run directory (the flagship
  pipeline's output): text reassembled from the interleaved span lists,
  quality/language read from the crawl's own enrichment columns — crawl
  → curate → training data with no re-scoring pass.

One set of kernels, two schedulers. An input whose parquet footers
report at most ``EXPORT_LOCAL_MAX_BYTES`` is read with pyarrow and every
stage runs in-process on one ``pa.Table`` (each grouped kernel sees the
whole table as its one partition), its file reads and table writes
overlapped on a thread pool sized to the Ray session; a larger input
maps the same kernels through Ray Data. Outputs are equal under both
(pinned by ``tests/test_export.py``).

Resumability model: the whole export commits atomically (tmp dir →
rename, manifest last), matching the crawl's tmp-epoch pattern; a rerun
with a complete manifest returns it without touching Ray. At 100 TB the
unit of atomicity is one input shard — run one export per shard
directory and skip shards whose manifest exists (the CLI takes the shard
as ``--sf-dir`` / ``--from-run``). A shard over the local bound streams
through Ray Data, so worker failures retry per-task; a smaller one runs
in the driver. Either way only a driver loss re-runs the shard.
"""

from __future__ import annotations

import json
import os
import shutil
import urllib.parse
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..functions import dedup, text

# media/ partial-row count (one row per distinct ref per block) above
# which the Ray Data scheduler's media aggregate merges hash-partitioned
# instead of driver-collected (the grouped_agg ≲10^6-key rule, applied
# with headroom because distinct media_ref scales with the corpus).
# Module-level so tests can exercise the partitioned path at fixture
# scale.
MEDIA_MERGE_DRIVER_MAX = 500_000

# Input size (uncompressed bytes summed over the input's parquet row
# groups, read from the footers before any data) at or below which the
# export runs in-process on one pa.Table instead of through Ray Data.
# It is the largest input measured. Least-squares fits over packed
# export_run ops on 8-host crawls of 7.4k, 14.1k and 29.1k docs (2.5,
# 4.9 and 10.2 MiB of footer bytes; median of 3 ops after a warm-up,
# 3 processes per size; a host with 4 CPUs allowed and
# OMP_NUM_THREADS=1, so Arrow runs 1 thread), fixed s + ms/row:
#                     multimodal               text-only
#   local:            0.04-0.12 + 0.005-0.009  0.08-0.10 + 0.006-0.007
#   Ray Data, 2 CPUs: 0.86      + 0.079        0.93      + 0.072
#   Ray Data, 4 CPUs: 1.53      + 0.038        1.57      + 0.031
# (the Ray Data rows were measured before reassembly and the media
# aggregate became Arrow kernels, and are not re-fitted). The local
# path saves Ray Data's fixed cost and is also cheaper per row, so the
# bound is a memory bound. During an op the driver's RSS rose by at
# most 2.3x the footer bytes (VmRSS sampled every ms against the RSS
# before the op: 5-13 MB, 12.8 MB at 10.2 MiB). Larger inputs,
# unmeasured on the local path, keep the Ray Data one. Module-level so
# tests can force either scheduler.
EXPORT_LOCAL_MAX_BYTES = 10 << 20

# the fetched columns export_run reads; n_ws_tokens is the crawl's own
# RE2 \S+ count over the same " "-joined text spans, reused as n_tokens
_RUN_COLUMNS = ["url", "spans", "quality_score", "lang_pred", "n_ws_tokens"]

# The in-driver export's file reads and table writes. Parquet decode and
# encode release the GIL, and Arrow's own pool has as many threads as
# OMP_NUM_THREADS allows (often 1), so overlapping files needs threads of
# our own. One pool for the process: a pool made per export call spent
# more starting its threads than the overlap saved on a 14k-doc input.
_IO_POOL: ThreadPoolExecutor | None = None


def _io_pool() -> ThreadPoolExecutor:
    """The export's I/O pool, made on first use with one thread per CPU
    of the Ray session (capped at the CPUs this process may run on; one
    thread without a session)."""
    global _IO_POOL
    if _IO_POOL is None:
        import ray

        n = int(ray.cluster_resources().get("CPU", 1)) \
            if ray.is_initialized() else 1
        _IO_POOL = ThreadPoolExecutor(
            max(1, min(n, len(os.sched_getaffinity(0)))),
            thread_name_prefix="export-io")
    return _IO_POOL


def _fits_in_driver(files: list[str]) -> list[pq.ParquetFile] | None:
    """``files`` opened, when their footers report at most
    ``EXPORT_LOCAL_MAX_BYTES`` of uncompressed row groups, else None;
    stops opening files once the total is over."""
    opened, total = [], 0
    for f in files:
        pf = pq.ParquetFile(f)
        opened.append(pf)
        md = pf.metadata
        total += sum(md.row_group(i).total_byte_size
                     for i in range(md.num_row_groups))
        if total > EXPORT_LOCAL_MAX_BYTES:
            for o in opened:
                o.close()
            return None
    return opened


def _read_files(opened: list[pq.ParquetFile], columns: list[str]) -> pa.Table:
    """``columns`` of the files :func:`_fits_in_driver` opened, decoded
    on the I/O pool and concatenated in file order; closes the files."""
    def read(pf):
        with pf:
            return pf.read(columns=columns, use_threads=False)

    return pa.concat_tables(list(_io_pool().map(read, opened)),
                            promote_options="default")


def _assign_split(df: pd.DataFrame) -> pd.DataFrame:
    """Deterministic 80/10/10 split. Integer ids use the Knuth
    multiplicative hash ``(id % 2^32) * 2654435761 % 2^32 % 10``; string
    ids (crawl URLs) use the 64-bit content hash — both are pure
    functions of the id, invariant to parallelism and reruns.

    Integer ids must be nonnegative (< 2^63): the uint64 cast wraps
    negative values differently from SQL's signed ``%`` (see
    ``cap_per_group``'s precondition note) — true for every id source
    this engine produces."""
    ids = df["doc_id"]
    if pd.api.types.is_integer_dtype(ids):
        iv = ids.to_numpy().astype(np.uint64)
        h = ((iv % np.uint64(2**32)) * np.uint64(2654435761)) \
            % np.uint64(2**32) % np.uint64(10)
    else:
        h = pd.util.hash_array(
            ids.to_numpy(dtype=object)).astype(np.uint64) % np.uint64(10)
    df = df.copy()
    df["split"] = np.where(h < 8, "train",
                           np.where(h < 9, "val", "test")).astype(object)
    return df


def _assign_split_arrow(t):
    """Arrow-format twin of :func:`_assign_split` for the multimodal
    path, where the batch carries a nested ``segments`` column that must
    not round-trip through the pandas block codec. Same hash, same
    labels — only the doc_id column is pulled into numpy."""
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    if ids.dtype.kind in "iu":
        iv = ids.astype(np.uint64)
        h = ((iv % np.uint64(2**32)) * np.uint64(2654435761)) \
            % np.uint64(2**32) % np.uint64(10)
    else:
        h = pd.util.hash_array(
            ids.astype(object)).astype(np.uint64) % np.uint64(10)
    split = np.where(h < 8, "train", np.where(h < 9, "val", "test"))
    return t.append_column("split", pa.array(split, type=pa.string()))


def _keep(qs: np.ndarray, lp: np.ndarray, min_quality: float,
          langs: list[str] | None) -> pa.Array:
    """The quality / language filter as a row mask."""
    keep = qs >= min_quality
    if langs is not None:
        keep &= pd.Series(lp).isin(langs).to_numpy()
    return pa.array(keep)


def _score(t: pa.Table, multimodal: bool, mlist, min_quality: float,
           langs: list[str] | None) -> pa.Table:
    """:func:`export_corpus`'s scoring kernel: quality / language with
    the oracle-checked kernels on a two-column pandas view (text + id
    only; the nested segments column is never pulled out of Arrow),
    then the quality / language filter."""
    tdf = pd.DataFrame({
        "doc_id": t.column("doc_id").to_numpy(zero_copy_only=False),
        "text": t.column("text").to_numpy(zero_copy_only=False),
    })
    q = text.quality_features(tdf)
    lang = text.LangId()(tdf)
    qs = q["quality_score"].to_numpy()
    lp = lang["lang_pred"].to_numpy()
    cols = {
        "doc_id": t.column("doc_id"),
        "text": t.column("text"),
        "quality_score": pa.array(qs, type=pa.float64()),
        "n_words": pa.array(q["n_words"].to_numpy().astype("int64")),
        "lang_pred": pa.array(lp, type=pa.string()),
    }
    if multimodal:
        cols["segments"] = t.column("segments")
        cols["n_media"] = t.column("n_media")
        cols["n_tokens"] = t.column("n_tokens")
    if mlist is not None:
        # pack budgets in real tokenizer tokens: overrides the
        # word-count n_tokens on the multimodal path, adds the column on
        # the text-only path
        cols["n_tokens"] = pa.array(
            text.bpe_doc_token_counts(tdf["text"], mlist)[1])
    return pa.table(cols).filter(_keep(qs, lp, min_quality, langs))


def _np(a) -> np.ndarray:
    """An Arrow (chunked) array as numpy; bit-packed masks copy."""
    return a.to_numpy(zero_copy_only=False)


def _reassemble(t: pa.Table, multimodal: bool, mlist, min_quality: float,
                langs: list[str] | None) -> pa.Table:
    """:func:`export_run`'s kernel over fetched rows: the filter on the
    crawl's own quality / language columns first, then, on the kept rows
    only, text joined from the text spans and, with ``multimodal``, the
    interleaved segments and ``n_tokens``. ``n_tokens`` is the crawl's
    ``n_ws_tokens``, counted at enrichment over the same joined text,
    so no regex runs here. Every step is an Arrow kernel over the
    flattened spans; no Python runs per doc or per span."""
    from ..functions.multimodal import SEGMENT_STRUCT, parent_lists

    t = t.filter(_keep(_np(t.column("quality_score")),
                       _np(t.column("lang_pred")), min_quality, langs))
    n = t.num_rows
    spans = t.column("spans")
    flat = pc.list_flatten(spans).combine_chunks()
    parents = _np(pc.list_parent_indices(spans))
    kind, texts = flat.field("kind"), flat.field("text")
    is_text = pc.equal(kind, "text")
    text_arr = pc.binary_join(parent_lists(
        texts.filter(is_text), parents[_np(is_text)], n), " ")
    cols = {
        "doc_id": t.column("url"),
        "text": text_arr,
        "quality_score": t.column("quality_score"),
        "lang_pred": t.column("lang_pred"),
    }
    if multimodal:
        # content spans only, document order: links are navigation and
        # compressed spans are archive pointers whose members already
        # export as their own docs. The ListArray stays Arrow from here
        # to the parquet write — never round-tripped through Python lists
        is_media = pc.equal(kind, "media")
        seg = pc.or_(is_text, is_media)
        seg_text = is_text.filter(seg)
        cols["segments"] = parent_lists(pa.StructArray.from_arrays(
            [
                kind.filter(seg),
                pc.if_else(seg_text, texts.filter(seg), ""),
                pc.if_else(seg_text, "",
                           flat.field("media_ref").filter(seg)),
                pc.cast(flat.field("offset").filter(seg), pa.int32()),
            ],
            fields=list(SEGMENT_STRUCT),
        ), parents[_np(seg)], n)
        cols["n_media"] = pa.array(np.bincount(
            parents[_np(is_media)], minlength=n).astype("int64"))
        cols["n_tokens"] = t.column("n_ws_tokens")
    if mlist is not None:
        # real tokenizer tokens for the pack budget (overrides the
        # crawl's whitespace count on the multimodal path, adds the
        # column on the text-only path)
        cols["n_tokens"] = pa.array(text.bpe_doc_token_counts(
            pd.Series(_np(text_arr)), mlist)[1])
    return pa.table(cols)


def _load_merges(bpe_merges) -> list[tuple[str, str]] | None:
    """Resolve the ``bpe_merges`` export argument — a merges DataFrame
    (from ``bpe_train_merges``) or a parquet path (from the `train-bpe`
    CLI) — to the rank-ordered (left, right) list the encode kernel
    applies. None means whitespace tokens."""
    if bpe_merges is None:
        return None
    if isinstance(bpe_merges, str):
        bpe_merges = pq.read_table(bpe_merges).to_pandas()
    m = bpe_merges.sort_values("rank")
    return [(str(lt), str(rt)) for lt, rt in zip(m["left"], m["right"])]


def _update_lsh_index(
    out_dir: str,
    index_dir: str,
    manifest: dict,
    manifest_path: str,
    threshold: float = 0.7,
    num_perm: int = 128,
    bands: int = 32,
    num_shards: int = 16,
) -> dict:
    """The daily-crawl dedup loop: report this export's near-dups
    against a PERSISTENT cross-run LSH index, then fold the export's
    docs into it — so each crawl is deduped against every crawl before
    it at O(delta) banding cost (`dedup.minhash_dedup_incremental`
    path-prunes untouched index shards).

    The index directory holds the band shards (``shard=*``, maintained
    by ``minhash_index_write``) plus ``docs/`` — the (doc_id, text)
    store needed to verify candidate pairs' true Jaccard; one parquet
    file per indexed run, named by the run tag so a retried export
    overwrites instead of duplicating. Appends are tagged with the run
    dir, making the whole phase idempotent: re-running a crashed export
    recomputes the same pairs and never double-indexes. Pair output
    lands in ``<out_dir>/near_dups/`` (id_a, id_b, jaccard) and the
    manifest gains an ``lsh`` block with delta/cross/in-delta counts.

    First run against an empty index bootstraps it: pairs are the
    delta's in-delta near-dups (`minhash_lsh_pairs`).

    This phase runs on Ray Data whichever scheduler wrote the export:
    the banding, the index shards and the pair verification are the
    dataset operators of ``functions/dedup.py``."""
    import hashlib

    import ray.data as rd

    from ..functions.dedup import (
        minhash_dedup_incremental,
        minhash_index_write,
        minhash_lsh_pairs,
    )

    delta = rd.read_parquet(os.path.join(out_dir, "data")) \
        .select_columns(["doc_id", "text"]).materialize()
    n_delta = delta.count()
    run_tag = manifest.get("run_dir") or manifest.get("sf_dir") or out_dir
    docs_dir = os.path.join(index_dir, "docs")
    bootstrap = not os.path.exists(
        os.path.join(index_dir, "index_meta.json"))

    if bootstrap:
        pairs = minhash_lsh_pairs(delta, num_perm=num_perm, bands=bands,
                                  threshold=threshold).to_pandas()
    else:
        import glob as _glob

        base_files = sorted(_glob.glob(os.path.join(docs_dir,
                                                    "*.parquet")))
        base_docs = rd.read_parquet(base_files)
        pairs = minhash_dedup_incremental(
            delta, index_dir, base_docs, threshold=threshold,
        ).to_pandas()

    nd_dir = os.path.join(out_dir, "near_dups")
    os.makedirs(nd_dir, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(pairs, preserve_index=False),
                   os.path.join(nd_dir, "pairs.parquet"))

    delta_df = delta.to_pandas()
    delta_ids = set(delta_df["doc_id"])
    in_delta = int((pairs["id_a"].isin(delta_ids)
                    & pairs["id_b"].isin(delta_ids)).sum()) \
        if len(pairs) else 0

    # fold the delta into the index: bands (tagged, idempotent) + texts
    # (deterministic filename per run tag, so retries overwrite)
    if bootstrap:
        minhash_index_write(delta, index_dir, num_perm=num_perm,
                            bands=bands, num_shards=num_shards)
    else:
        minhash_index_write(delta, index_dir, num_perm=num_perm,
                            bands=bands, num_shards=num_shards,
                            append=True, tag=run_tag)
    os.makedirs(docs_dir, exist_ok=True)
    fname = hashlib.sha1(run_tag.encode()).hexdigest()[:16] + ".parquet"
    tmp = os.path.join(docs_dir, "." + fname + ".tmp")
    delta_df.to_parquet(tmp, index=False)
    os.replace(tmp, os.path.join(docs_dir, fname))

    manifest["lsh"] = {
        "index_dir": os.path.abspath(index_dir),
        "bootstrap": bootstrap,
        "delta_docs": int(n_delta),
        "near_dup_pairs": int(len(pairs)),
        "in_delta_pairs": in_delta,
        "cross_pairs": int(len(pairs)) - in_delta,
        "threshold": threshold,
    }
    return _write_manifest(manifest, manifest_path)


def _write_manifest(manifest: dict, manifest_path: str) -> dict:
    os.makedirs(os.path.dirname(manifest_path), exist_ok=True)
    with open(manifest_path + ".tmp", "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(manifest_path + ".tmp", manifest_path)
    return manifest


def _tag_group(df: pd.DataFrame) -> pd.DataFrame:
    return df.assign(
        __grp=df["split"].astype(str) + "\x1f" + df["lang_pred"].astype(str))


def _untag(df: pd.DataFrame) -> pd.DataFrame:
    parts = df["__grp"].str.split("\x1f")
    df = df.drop(columns="__grp")
    df["split"] = parts.str[0]
    df["lang_pred"] = parts.str[1]
    return df


def _tag_group_arrow(t: pa.Table) -> pa.Table:
    comb = pc.binary_join_element_wise(
        pc.cast(t.column("split"), pa.string()),
        pc.cast(t.column("lang_pred"), pa.string()), "\x1f")
    return t.append_column("__grp", comb)


def _untag_arrow(t: pa.Table) -> pa.Table:
    parts = pc.split_pattern(t.column("__grp"), "\x1f")
    t = t.drop_columns(["__grp"])
    t = t.append_column(
        "split", pc.cast(pc.list_element(parts, 0), pa.string()))
    return t.append_column(
        "lang_pred", pc.cast(pc.list_element(parts, 1), pa.string()))


def _media_pairs(t: pa.Table) -> pa.Table:
    """(media_ref, n_uses=1, first_doc=doc_id) per media segment: a
    vectorized Arrow explode (flatten the segment lists once, keep media
    entries, take doc ids by parent index) — no per-row Python over
    segments. The rows are :func:`_media_agg`'s input."""
    segs = t.column("segments")
    flat = pc.list_flatten(segs).combine_chunks()
    is_media = pc.equal(flat.field("kind"), "media")
    refs = flat.field("media_ref").filter(is_media)
    return pa.table({
        "media_ref": refs,
        "n_uses": pa.array(np.ones(len(refs), np.int64)),
        "first_doc": t.column("doc_id").take(
            pc.list_parent_indices(segs).filter(is_media)),
    })


def _media_agg(pairs: pa.Table) -> pa.Table:
    """media/'s aggregate: one row per distinct ``media_ref``, its
    ``n_uses`` summed and its ``first_doc`` the min. Output columns are
    the input's and the reduction is associative, so the same kernel is
    the per-batch partial and the merge of partials: any split of the
    rows into calls gives the same table up to row order."""
    g = pairs.group_by("media_ref", use_threads=False).aggregate(
        [("n_uses", "sum"), ("first_doc", "min")])
    return pa.table({"media_ref": g["media_ref"],
                     "n_uses": g["n_uses_sum"],
                     "first_doc": g["first_doc_min"]})


def _empty_media(id_type: pa.DataType) -> pa.Table:
    """The media/ table of an all-text corpus: no rows, the schema a
    media-bearing export of the same source writes (``first_doc`` is
    int for table shards, string for crawl runs)."""
    return pa.table({
        "media_ref": pa.array([], type=pa.string()),
        "n_uses": pa.array([], type=pa.int64()),
        "first_doc": pa.array([], type=id_type),
        "content_hash": pa.array([], type=pa.string()),
        "payload_bytes": pa.array([], type=pa.int64()),
        "media_type": pa.array([], type=pa.string()),
        "decoded": pa.array([], type=pa.bool_()),
        "canonical_ref": pa.array([], type=pa.string()),
        "content_dup_count": pa.array([], type=pa.int64()),
    })


def _write_partitions(t: pa.Table, root: str, cols: list[str]) -> None:
    """Hive-partitioned write of an in-memory table: one
    ``part-0.parquet`` per distinct value of ``cols``, its rows in table
    order, the partition columns left out of the file. That is what
    ``pq.write_to_dataset`` writes, named by the partition instead of a
    fresh uuid, so a rerun writes the same names."""
    groups = t.select(cols).append_column(
        "__row", pa.array(np.arange(t.num_rows))).group_by(
        cols, use_threads=False).aggregate([("__row", "list")])
    body = t.drop_columns(cols)
    for key, rows in zip(groups.select(cols).to_pylist(),
                         groups.column("__row_list").combine_chunks()):
        d = os.path.join(root, *(
            f"{c}={urllib.parse.quote(str(key[c]), safe='')}"
            for c in cols))
        os.makedirs(d, exist_ok=True)
        pq.write_table(body.take(rows.values),
                       os.path.join(d, "part-0.parquet"))


def _write_output(out_dir: str, name: str, t,
                  partition_cols: list[str] | None = None) -> None:
    """Write one output table — a ``pa.Table`` in-process, a Dataset
    through Ray Data — to ``.tmp_<name>`` and rename it to ``<name>``
    (a crash leaves no half-written table under the real name). Hive
    partition columns leave the files either way; an in-process table
    writes ``part-0.parquet`` per partition (or one at the top,
    unpartitioned). Thread-safe across distinct ``name``s, so the
    in-process export runs its writes on the I/O pool."""
    final, tmp = (os.path.join(out_dir, name),
                  os.path.join(out_dir, ".tmp_" + name))
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    if not isinstance(t, pa.Table):
        t.write_parquet(tmp, partition_cols=partition_cols)
    elif partition_cols:
        _write_partitions(t, tmp, partition_cols)
    else:
        pq.write_table(t, os.path.join(tmp, "part-0.parquet"))
    os.replace(tmp, final)


def _dedup_split_write(
    kept,
    out_dir: str,
    base: dict,
    packed: bool,
    pack_capacity: int,
    manifest_path: str,
    multimodal: bool = False,
    bpe: bool = False,
    shuffle_shards: int | None = None,
) -> dict:
    """Shared tail: exact dedup (columns ride as passengers) → split →
    partitioned write (+ optional packed table) → manifest. ``kept``
    has at least (doc_id, text, lang_pred); with ``multimodal=True`` it
    also carries (segments, n_media, n_tokens) and the export
    additionally (a) keeps the interleaved ``segments`` column in
    ``data/``, (b) writes a ``media/`` table of corpus-deduped refs
    (media_ref, n_uses, first_doc, payload features, canonical_ref,
    content_dup_count), (c) accounts media in the manifest, and (d)
    packs INTERLEAVED sequences (media refs preserved in document order)
    instead of text-only payloads.

    Two schedulers run the same kernels. ``kept`` as a ``pa.Table`` (an
    input under ``EXPORT_LOCAL_MAX_BYTES``) runs every stage in-process:
    each grouped kernel is called once with the whole table as its one
    partition, and no Ray Data execution starts. ``kept`` as a
    materialized Dataset maps the same kernels through Ray Data's
    hash-partitioned exchanges.

    ``shuffle_shards=N`` prepends a ``shard=`` hive level to ``data/``:
    each surviving doc's shard is its contiguous range of the global
    hash order (`balanced_hash_shards` — a bin-count collect plus one
    streaming pass, NO exchange), so the written layout IS a
    reproducible global shuffle — the same doc lands in the same shard
    on any rerun at any parallelism, shard sizes are balanced to within
    one hash bin, and a consumer reading ``shard=0..N-1`` in order
    streams the corpus in shuffled order without ``random_shuffle``'s
    nondeterministic all-to-all."""
    local = isinstance(kept, pa.Table)
    if (kept.num_rows if local else kept.count()) == 0:
        # an earlier export into this out_dir may have left data/ and
        # packed/ behind; a 0-row manifest must not sit next to stale
        # partitions a hive reader would still see
        shutil.rmtree(os.path.join(out_dir, "data"), ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, "packed"), ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, "media"), ignore_errors=True)
        return _write_manifest(
            {**base, "rows_written": 0, "partitions": {}}, manifest_path)

    # winners carry their full row through the dedup shuffle as
    # passenger columns — one exchange instead of dedup + re-join. The
    # multimodal path uses the Arrow form throughout: the segments
    # list<struct> rides every stage as Arrow buffers (Ray's pandas
    # codec cannot round-trip nested columns, and per-row Python
    # materialization was the old path's hot loop).
    names = kept.schema.names if local else kept.schema().names
    dkw = dict(id_col="doc_id",
               keep_cols=[c for c in names if c != "doc_id"])
    final_df = None  # the text-only path's pandas rows (local only)
    if local and multimodal:
        final = _assign_split_arrow(dedup.exact_first_wins_arrow(
            dedup.exact_hash_batch_arrow(kept, text_col="text", **dkw),
            **dkw))
    elif local:
        final_df = _assign_split(dedup.exact_first_wins(
            dedup.exact_hash_batch(kept.to_pandas(), text_col="text",
                                   **dkw), **dkw))
        final = pa.Table.from_pandas(final_df, preserve_index=False)
    elif multimodal:
        final = dedup.exact_dedup_arrow(kept, text_col="text", **dkw) \
            .map_batches(_assign_split_arrow, batch_format="pyarrow")
    else:
        final = dedup.exact_dedup(kept, text_col="text", **dkw) \
            .map_batches(_assign_split, batch_format="pandas")
    if not local and (packed or multimodal):
        # the doc table, the media table and the packed table all
        # consume `final`; materialize so the dedup chain executes once
        final = final.materialize()

    # the in-process path's table writes run on the I/O pool while the
    # media and pack stages compute; all are joined before the manifest
    # pass reads them back, and on an error too, so no thread is still
    # writing once this returns
    writes = []

    def write(name, t, cols=None):
        if local:
            writes.append(
                _io_pool().submit(_write_output, out_dir, name, t, cols))
        else:
            _write_output(out_dir, name, t, cols)

    try:
        _write_tables(final, final_df, out_dir, write, local, packed,
                      pack_capacity, multimodal, bpe, shuffle_shards)
    finally:
        wait(writes)
    for f in writes:
        f.result()

    # partition sizes from the written files (what a consumer will see)
    written = pads.dataset(os.path.join(out_dir, "data"),
                           partitioning="hive")
    tbl = written.to_table(columns=["split", "lang_pred"])
    sizes = (
        tbl.to_pandas().groupby(["split", "lang_pred"]).size().sort_index()
    )
    manifest = {
        **base,
        "rows_written": int(sizes.sum()),
        "partitions": {f"{s}/{lg}": int(n) for (s, lg), n in sizes.items()},
    }
    if shuffle_shards:
        sc = (pd.Series(written.to_table(columns=["shard"])["shard"]
                        .to_numpy(zero_copy_only=False))
              .astype("int64").value_counts().sort_index())
        manifest["shuffle_shards"] = shuffle_shards
        manifest["shards"] = {str(k): int(v) for k, v in sc.items()}
    if multimodal:
        mt = pads.dataset(os.path.join(out_dir, "media")).to_table(
            columns=["media_ref", "n_uses", "content_hash"])
        manifest["media_unique"] = int(mt.num_rows)
        manifest["media_occurrences"] = int(
            pd.Series(mt["n_uses"].to_numpy(zero_copy_only=False)).sum())
        manifest["media_content_unique"] = int(
            len(pd.unique(mt["content_hash"].to_numpy(
                zero_copy_only=False))))
    if packed:
        pcols = ["split", "lang_pred", "n_docs", "seq_tokens"]
        if multimodal:
            pcols.append("n_media")
        pt = pads.dataset(
            os.path.join(out_dir, "packed"), partitioning="hive"
        ).to_table(columns=pcols)
        pdf = pt.to_pandas()
        manifest["pack_capacity"] = pack_capacity
        manifest["tokenizer"] = "bpe" if bpe else "whitespace"
        manifest["sequences"] = {
            f"{s}/{lg}": int(n) for (s, lg), n in
            pdf.groupby(["split", "lang_pred"]).size().sort_index().items()
        }
        manifest["packed_docs"] = int(pdf["n_docs"].sum())
        manifest["packed_tokens"] = int(pdf["seq_tokens"].sum())
        if multimodal:
            manifest["packed_media"] = int(pdf["n_media"].sum())
    return _write_manifest(manifest, manifest_path)


def _write_tables(final, final_df, out_dir: str, write, local: bool,
                  packed: bool, pack_capacity: int, multimodal: bool,
                  bpe: bool, shuffle_shards: int | None) -> None:
    """:func:`_dedup_split_write`'s tables from the deduped, split rows
    ``final``: ``data/``, then ``media/`` and ``packed/`` as asked, each
    handed to ``write(name, table, partition_cols)``."""
    from ..functions import multimodal as mm
    from ..functions import relational as rel

    data_out, part_cols = final, ["split", "lang_pred"]
    if shuffle_shards:
        if local:
            c = rel.hash_shard_bin_counts(final, "doc_id")
            lut = rel.hash_shard_lut(c.column("__bin").to_numpy(),
                                     c.column("__n").to_numpy(),
                                     shuffle_shards)
            data_out = rel.hash_shard_assign(final, lut, "doc_id")
        else:
            data_out = rel.balanced_hash_shards(final, "doc_id",
                                                shuffle_shards)
        part_cols = ["shard"] + part_cols
    write("data", data_out, part_cols)

    # a rerun with narrower flags must not leave a previous export's
    # sibling tables beside the fresh manifest (same hazard as the
    # 0-row path): the manifest must account for everything on disk
    if not multimodal:
        shutil.rmtree(os.path.join(out_dir, "media"), ignore_errors=True)
    if not packed:
        shutil.rmtree(os.path.join(out_dir, "packed"), ignore_errors=True)

    if multimodal:
        # corpus-level media dedup: explode (media_ref, doc_id) pairs —
        # only those pairs shuffle, never payloads — and aggregate to
        # one row per distinct ref; then the second dedup tier: payload
        # features + content-hash canonicalization over the UNIQUE refs
        # (payload work once per distinct ref; distinct refs serving
        # identical bytes collapse to a canonical_ref)
        if local:
            # the pairs are bounded by the in-driver input, so the
            # aggregate runs here whatever MEDIA_MERGE_DRIVER_MAX says
            media = _media_agg(_media_pairs(final))
            n_media = media.num_rows
            if n_media:
                media = pa.Table.from_pandas(
                    mm.media_canon(mm.media_ref_features(media.to_pandas())),
                    preserve_index=False)
            id_type = final.schema.field("doc_id").type
        else:
            # the same kernel per block, then over the partials: a driver
            # collect while they are few, else hash-partitioned on
            # media_ref, so distinct refs (which scale with the corpus)
            # never collect on the driver at scale
            part = final.map_batches(_media_pairs, batch_format="pyarrow") \
                .map_batches(_media_agg, batch_format="pyarrow").materialize()
            n_part = part.count()
            if n_part > MEDIA_MERGE_DRIVER_MAX:
                media = rel.grouped_apply_arrow(
                    part, ["media_ref"], _media_agg, num_partitions=max(
                        2, -(-n_part // rel.AUTO_MERGE_ROWS_PER_PART)),
                ).materialize()
            else:
                import ray
                import ray.data as rd

                # an empty block leaves a map stage with no schema
                blocks = [b for b in ray.get(part.to_arrow_refs())
                          if b.num_rows]
                media = rd.from_arrow(_media_agg(pa.concat_tables(blocks))) \
                    if blocks else None
            n_media = media.count() if media is not None else 0
            if n_media:
                media = mm.media_content_dedup(media.map_batches(
                    mm.media_ref_features, batch_format="pandas",
                    batch_size=2048))
            sch = final.schema()
            t = sch.types[list(sch.names).index("doc_id")]
            is_int = (pa.types.is_integer(t) if isinstance(t, pa.DataType)
                      else np.issubdtype(t, np.integer))
            id_type = pa.int64() if is_int else pa.string()
        # an all-text corpus commits an empty table WITH schema, so
        # readers (and _dedup_split_write's manifest pass) never hit a
        # schemaless directory
        write("media", media if n_media else _empty_media(id_type))

    if packed:
        if multimodal:
            # interleaved sequences: media refs ride in document order;
            # arrow-format stages end-to-end (nested segments column)
            pkw = dict(capacity=pack_capacity, group_col="__grp",
                       id_col="doc_id", tokens_col="n_tokens",
                       segments_col="segments")
            if local:
                seqs = _untag_arrow(text.pack_interleaved_part(
                    _tag_group_arrow(final), **pkw))
            else:
                seqs = text.pack_interleaved(
                    final.map_batches(_tag_group_arrow,
                                      batch_format="pyarrow"), **pkw,
                ).map_batches(_untag_arrow, batch_format="pyarrow")
        else:
            tkw = dict(text_col="text", id_col="doc_id", group_col="__grp")
            if local:
                seqs = pa.Table.from_pandas(_untag(text.pack_payload_part(
                    text.pack_payload_tokens(
                        _tag_group(final_df), **tkw,
                        tokens_col="n_tokens" if bpe else None),
                    capacity=pack_capacity, sep="\n", **tkw)),
                    preserve_index=False)
            else:
                seqs = text.pack_payloads(
                    final.map_batches(_tag_group, batch_format="pandas"),
                    capacity=pack_capacity, **tkw,
                    tokens_col="n_tokens" if bpe else None,
                ).map_batches(_untag, batch_format="pandas")
        write("packed", seqs, ["split", "lang_pred"])


def export_corpus(
    sf_dir: str,
    out_dir: str,
    min_quality: float = 0.5,
    langs: list[str] | None = None,
    resume: bool = True,
    packed: bool = False,
    pack_capacity: int = 2048,
    multimodal: bool = False,
    bpe_merges=None,
    shuffle_shards: int | None = None,
) -> dict:
    """Filter → dedup → split → write hive-partitioned parquet from a
    documents shard.

    With ``packed=True`` a second table ``packed/`` is written: the
    surviving documents greedily packed into ``pack_capacity``-token
    sequences per (split, lang) group — split boundaries are never
    crossed, so train sequences cannot leak val/test text — one row per
    sequence (seq text + doc count + token sum), same hive partitioning.

    ``bpe_merges`` (a merge table from ``bpe_train_merges`` or a parquet
    path from the `train-bpe` CLI) switches the per-doc ``n_tokens``
    accounting — and therefore what ``pack_capacity`` MEANS — from
    whitespace tokens to real BPE tokenizer tokens, applied in the same
    scoring pass (`bpe_doc_token_counts`, unique-words-per-batch encode,
    no extra exchange). The manifest records ``tokenizer``.

    With ``multimodal=True`` each document is first re-derived as an
    interleaved text+media segment sequence (`interleaved_docs` — the
    deterministic derivation the mm_* oracle queries pin) and the
    export carries segments / media table / media accounting exactly
    like `export_run`'s multimodal path.

    Returns the manifest: input/kept/written row counts and per
    (split, lang) partition sizes. With ``resume=True`` a complete
    manifest short-circuits the whole export.
    """
    manifest_path = os.path.join(out_dir, "export_manifest.json")
    if resume and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)

    mlist = _load_merges(bpe_merges)
    score = partial(_score, multimodal=multimodal, mlist=mlist,
                    min_quality=min_quality, langs=langs)
    opened = _fits_in_driver([os.path.join(sf_dir, "documents.parquet")])
    if opened is not None:
        from ..functions.multimodal import interleaved_batch

        docs = _read_files(opened, ["doc_id", "text"])
        n_in = docs.num_rows
        kept = score(interleaved_batch(docs) if multimodal else docs)
    else:
        from ..functions.multimodal import interleaved_docs
        from ..functions.relational import read_table

        docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
        n_in = docs.count()
        if multimodal:
            docs = interleaved_docs(docs)
        # one scoring pass: materialize the (shard-sized) filtered rows
        # so the emptiness probe and the dedup reuse the same blocks
        kept = docs.map_batches(score, batch_format="pyarrow").materialize()
    base = {"sf_dir": os.path.abspath(sf_dir), "rows_in": int(n_in),
            "min_quality": min_quality, "langs": langs}
    if isinstance(bpe_merges, str):
        base["bpe_merges"] = os.path.abspath(bpe_merges)
    return _dedup_split_write(kept, out_dir, base, packed, pack_capacity,
                              manifest_path, multimodal=multimodal,
                              bpe=mlist is not None,
                              shuffle_shards=shuffle_shards)


def export_run(
    run_dir: str,
    out_dir: str,
    min_quality: float = 0.5,
    langs: list[str] | None = None,
    resume: bool = True,
    packed: bool = False,
    pack_capacity: int = 2048,
    multimodal: bool = True,
    bpe_merges=None,
    lsh_index: str | None = None,
    lsh_threshold: float = 0.7,
    shuffle_shards: int | None = None,
) -> dict:
    """Crawl → curate → training data: export a finished crawl run.

    Text is reassembled from each fetched doc's interleaved span list
    (already in offset order — span-sequence equality vs the reference
    is pytest-pinned, so the concatenation is deterministic);
    quality_score / lang_pred, and the multimodal path's whitespace
    ``n_tokens`` (the crawl's ``n_ws_tokens``), come from the crawl's own
    enrichment columns, so no re-scoring or recounting pass runs. doc_id
    is the URL; the split hash is the 64-bit string hash (same
    invariance guarantees as the integer path).

    An input under ``EXPORT_LOCAL_MAX_BYTES`` runs in the driver: its
    files are decoded, and ``data/`` and ``media/`` written, on a thread
    pool sized to the Ray session's CPUs, overlapping each other and the
    media and pack stages. Partition files are named ``part-0.parquet``,
    so a rerun writes the same files.

    With ``multimodal=True`` (default) the export PRESERVES the media
    modality the crawl fetched: each doc keeps its interleaved
    ``segments`` (text + media spans in document order; link spans are
    navigation, not content, and drop), a corpus-deduped ``media/``
    table is written, media counts land in the manifest, and
    ``packed=True`` packs interleaved sequences — the reference's
    family blob likewise preserves every file kind in order
    (`/root/reference/crawlers/globus_base_preserved.py:320-346`).
    ``multimodal=False`` restores the text-only export.

    ``bpe_merges`` switches token accounting to real BPE tokenizer
    tokens exactly as in :func:`export_corpus` — ``pack_capacity``
    then budgets BPE tokens.

    ``lsh_index`` chains the run into the cross-run dedup lifecycle:
    the export's near-dups against every PREVIOUSLY indexed run are
    reported (``near_dups/`` + manifest ``lsh`` block) and the run's
    docs are folded into the persistent band index — see
    :func:`_update_lsh_index`.
    """
    manifest_path = os.path.join(out_dir, "export_manifest.json")
    if resume and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)

    from .crawl import fetched_files

    mlist = _load_merges(bpe_merges)
    reassemble = partial(_reassemble, multimodal=multimodal, mlist=mlist,
                         min_quality=min_quality, langs=langs)
    files = fetched_files(run_dir)
    opened = _fits_in_driver(files)
    if not files:
        # a crawl that fetched nothing: _dedup_split_write's 0-row path
        n_in, kept = 0, pa.table({})
    elif opened is not None:
        docs = _read_files(opened, _RUN_COLUMNS)
        n_in = docs.num_rows
        kept = reassemble(docs)
    else:
        import ray.data as rd

        docs = rd.read_parquet(files, columns=_RUN_COLUMNS)
        n_in = docs.count()
        kept = docs.map_batches(reassemble,
                                batch_format="pyarrow").materialize()
    base = {"run_dir": os.path.abspath(run_dir), "rows_in": int(n_in),
            "min_quality": min_quality, "langs": langs}
    if isinstance(bpe_merges, str):
        base["bpe_merges"] = os.path.abspath(bpe_merges)
    manifest = _dedup_split_write(kept, out_dir, base, packed,
                                  pack_capacity, manifest_path,
                                  multimodal=multimodal,
                                  bpe=mlist is not None,
                                  shuffle_shards=shuffle_shards)
    if lsh_index and manifest.get("rows_written", 0) > 0:
        manifest = _update_lsh_index(out_dir, lsh_index, manifest,
                                     manifest_path,
                                     threshold=lsh_threshold)
    return manifest
