"""Fetch/expand: look up admitted frontier URLs in the bucketed corpus.

The Ray analog of the reference's per-directory listing fetch
(`/root/reference/crawlers/globus_base_preserved.py:277`
``transfer.operation_ls`` with retry at ``:271-304``; funcX remote listing
`crawlers/local_funcx.py:122-169`).

Corpus residency (measured — this design replaced a per-process dict cache
that cost ~200 CPU-seconds of warmup across 32 workers): each corpus
bucket is loaded ONCE, indexed by a sorted uint64 url-hash array, and
``ray.put`` into the object store; every fetch task ``ray.get``s the
bucket ZERO-COPY (Arrow tables and numpy arrays are plasma-shared, not
deserialized per process). Lookup is ``np.searchsorted`` on the hash index
(C binary search) + a vectorized doc_id equality check to reject the
(cosmically rare) uint64 collisions. On a multi-node cluster the same refs
ship buckets to whichever node fetches them — the object store is the
distribution fabric; at 100 TB the provider swaps to row-group-pruned
Lance/parquet reads per bucket without touching this stage's interface.

Output: one row per admitted URL — status 200 + verbatim ``spans`` when
the doc exists, 404 + empty spans otherwise (the reference drops failed
dirs to ``failed_dirs.json`` `:473-477`; here failures are first-class
rows). Span sequences are copied zero-copy via ``take`` — the row-for-row
span-sequence equality invariant holds by construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.corpus import SPANS_TYPE, bucket_path, corpus_meta
from ..urls import hash_urls, hash_urls2

FETCHED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("url", pa.string()),
        ("host", pa.string()),
        ("priority", pa.float32()),
        ("depth", pa.int32()),
        ("fetch_epoch", pa.int32()),
        ("host_rank", pa.int32()),
        ("virtual_ts_ms", pa.int64()),
        ("retries", pa.int16()),
        ("status", pa.int16()),
        # "fetch" = admitted frontier URL; "archive" = member doc extracted
        # from a compressed span (stages/archives.py)
        ("src", pa.string()),
        ("spans", SPANS_TYPE),
        ("n_text_spans", pa.int32()),
        ("n_media_spans", pa.int32()),
        ("n_links", pa.int32()),
        ("bytes", pa.int64()),
    ]
)


def span_stat_columns(spans: pa.ListArray, n: int):
    """(n_text, n_media, n_links, bytes) numpy columns for a spans array
    — flatten + bincount, no per-row Python."""
    flat = spans.flatten()
    parents = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
    kinds = flat.field("kind").to_numpy(zero_copy_only=False)
    tlen = pc.utf8_length(flat.field("text")).to_numpy(zero_copy_only=False)
    mlen = pc.utf8_length(flat.field("media_ref")).to_numpy(
        zero_copy_only=False
    )
    n_text = np.bincount(parents[kinds == "text"], minlength=n)
    n_media = np.bincount(parents[kinds == "media"], minlength=n)
    n_links = np.bincount(parents[kinds == "link"], minlength=n)
    nbytes = np.bincount(parents, weights=(tlen + mlen), minlength=n)
    return n_text, n_media, n_links, nbytes


def _index_bucket(tbl: pa.Table):
    """(spans Array, sorted url-hashes, row indices in hash order, second
    hash per row).

    Columns are combined to plain single-chunk Arrays HERE, once —
    ``ChunkedArray.combine_chunks()`` copies the whole column (~40 ms on a
    128k-row spans column), and calling it per fetch batch per bucket was
    measured at ~1 s per 12k-row batch. The second hash array replaces a
    doc_id string comparison as the hash-collision guard (pure uint64
    compare; a false hit now needs a 128-bit collision).
    """
    ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
    h = hash_urls(ids)
    h2 = hash_urls2(ids)
    order = np.argsort(h, kind="stable")
    spans = tbl["spans"].combine_chunks()
    return spans, h[order], order.astype(np.int64), h2


class SharedBucketProvider:
    """Object-store provider: buckets were ray.put once (driver); tasks
    resolve refs zero-copy and keep the (shared-memory-backed) handles."""

    def __init__(self, refs: list, num_buckets: int):
        self.refs = refs
        self.num_buckets = num_buckets
        self._cache: dict[int, tuple] = {}

    def get(self, b: int):
        hit = self._cache.get(b)
        if hit is None:
            import ray

            hit = ray.get(self.refs[b])
            self._cache[b] = hit
        return hit


def put_corpus(corpus_dir: str) -> tuple[list, int]:
    """Load + index + ray.put every bucket (once per driver per corpus)."""
    import ray

    nb = corpus_meta(corpus_dir)["num_buckets"]
    refs = [
        ray.put(_index_bucket(pq.read_table(bucket_path(corpus_dir, b))))
        for b in range(nb)
    ]
    return refs, nb


class CorpusFetcher:
    """Batch fetch: vectorized hash-index lookup against provider buckets.

    ``flaky_every`` > 0 simulates deterministic transient fetch failures:
    a flaky URL's FIRST attempt returns status 503 with no spans (no
    expansion); the epoch driver re-enqueues it with retries+1 (the
    reference retries failed listings in place,
    `/root/reference/crawlers/globus_base_preserved.py:283-301`; here the
    retry is a frontier re-entry so it stays deterministic and
    politeness-accounted).
    """

    def __init__(self, provider, epoch: int, flaky_every: int = 0):
        self.provider = provider
        self.epoch = epoch
        self.flaky_every = flaky_every

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.Table.from_pylist([], schema=FETCHED_SCHEMA)
        urls = t["url"].to_numpy(zero_copy_only=False)
        h = hash_urls(urls)
        qh2 = hash_urls2(urls)
        buckets = (h % np.uint64(self.provider.num_buckets)).astype(np.int64)
        spans_chunks: list[pa.Array] = []
        order: list[np.ndarray] = []
        found = np.zeros(n, dtype=bool)
        for b in np.unique(buckets):
            spans_arr, sh, row_idx, h2_rows = self.provider.get(int(b))
            sel = np.nonzero(buckets == b)[0]
            hs = h[sel]
            pos = np.searchsorted(sh, hs)
            pos_c = np.minimum(pos, len(sh) - 1) if len(sh) else pos
            ok = (len(sh) > 0) & (pos < len(sh)) & (sh[pos_c] == hs)
            rows = np.where(ok, row_idx[pos_c], -1)
            # collision guard: second independent hash must agree too
            hit_mask = rows >= 0
            if hit_mask.any():
                hit_mask[hit_mask] = (
                    h2_rows[rows[hit_mask]] == qh2[sel[hit_mask]]
                )
            hit_sel = sel[hit_mask]
            if hit_sel.size:
                spans_chunks.append(
                    spans_arr.take(pa.array(rows[hit_mask], type=pa.int64()))
                )
                order.append(hit_sel)
                found[hit_sel] = True
        status = np.where(found, 200, 404).astype(np.int16)
        retries = (
            t["retries"].to_numpy(zero_copy_only=False)
            if "retries" in t.schema.names
            else np.zeros(n, dtype=np.int16)
        )
        if self.flaky_every:
            from ..urls import flaky_mask

            transient = flaky_mask(h, self.flaky_every) & (retries == 0) & found
            if transient.any():
                status = np.where(transient, 503, status).astype(np.int16)
                # a failed attempt yields no spans (no expansion this epoch)
                new_chunks, new_order = [], []
                for c, o in zip(spans_chunks, order):
                    keep = ~transient[o]
                    new_chunks.append(c.filter(pa.array(keep)))
                    new_order.append(o[keep])
                spans_chunks, order = new_chunks, new_order
        spans = _assemble_spans(n, order, spans_chunks)
        n_text, n_media, n_links, nbytes = span_stat_columns(spans, n)
        return pa.Table.from_arrays(
            [
                t["url"].combine_chunks(),
                t["url"].combine_chunks(),
                t["host"].combine_chunks(),
                t["priority"].combine_chunks(),
                t["depth"].combine_chunks(),
                pa.array(np.full(n, self.epoch, dtype=np.int32)),
                t["host_rank"].combine_chunks(),
                t["virtual_ts_ms"].combine_chunks(),
                pa.array(retries.astype(np.int16)),
                pa.array(status, type=pa.int16()),
                pa.array(np.full(n, "fetch", dtype=object), type=pa.string()),
                spans,
                pa.array(n_text.astype(np.int32)),
                pa.array(n_media.astype(np.int32)),
                pa.array(n_links.astype(np.int32)),
                pa.array(nbytes.astype(np.int64)),
            ],
            schema=FETCHED_SCHEMA,
        )


def _assemble_spans(
    n: int, order: list[np.ndarray], chunks: list[pa.Array]
) -> pa.ListArray:
    """Scatter per-bucket span arrays back to original row positions;
    missing rows become empty lists."""
    if not order:
        return pa.array([[] for _ in range(n)], type=SPANS_TYPE)
    concat = (
        chunks[0]
        if len(chunks) == 1
        else pa.concat_arrays([c.cast(SPANS_TYPE) for c in chunks])
    )
    pos = np.concatenate(order)
    take_idx = np.full(n, -1, dtype=np.int64)
    take_idx[pos] = np.arange(len(pos))
    taken = concat.take(
        pa.array(np.where(take_idx >= 0, take_idx, 0), type=pa.int64())
    )
    if (take_idx < 0).any():
        offsets = taken.offsets.to_numpy(zero_copy_only=False).copy()
        lengths = np.diff(offsets)
        lengths[take_idx < 0] = 0
        new_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:])
        keep_mask = np.repeat(take_idx >= 0, np.diff(offsets))
        values = taken.values.filter(pa.array(keep_mask))
        taken = pa.ListArray.from_arrays(
            pa.array(new_offsets, type=pa.int64()).cast(pa.int32()), values
        )
    return taken.cast(SPANS_TYPE)
