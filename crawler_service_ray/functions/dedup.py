"""Deduplication operators for training-data pipelines.

The reference only gestures at dedup (`dup_check` stubs
`/root/reference/crawlers/local_posix.py:156-158`, md5 content hash
`legacy/posix_crawler.py:71-91`); here the full family is first-class,
each built Ray-Data-first:

  exact           content-hash per batch → hash-partitioned first-wins
  minhash-LSH     shingle → minhash sig → band rows → groupby(band) buckets
                  → candidate pairs → STREAMED text-join verification
                  (true Jaccard) — nothing materializes on the driver
  simhash         64-bit simhash per doc, hamming-bucketed candidates,
                  vectorized SWAR popcount verify
  ngram-jaccard   EXACT all-pairs n-gram Jaccard via a distributed
                  inverted shingle index (SQL-oracle-checkable)
  embedding       cosine near-dup: exact block-pair all-pairs (no driver
                  matrix) + IVF-cell-bucketed approximate scale path
  clusters        connected components over a near-dup pair list
  line / span     CCNet-style frequent-line removal, duplicated spans
  incremental     persisted LSH band index; a delta-only minhash run

All signatures/hashes are deterministic (fixed seeds); every per-batch
kernel is numpy-vectorized over the batch (the only Python-level loops
are over documents inside a batch for shingling and over candidate
PAIRS for string-set Jaccard — both string work numpy cannot express).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

_MERSENNE = (1 << 61) - 1


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Hashes of the k-word shingles of a document (word-level)."""
    words = text.split()
    if len(words) < k:
        shingles = [" ".join(words)] if words else [""]
    else:
        shingles = [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]
    return np.unique(
        pd.util.hash_array(np.array(shingles, dtype=object))
    )


def _minhash_params(num_perm: int, seed: int = 42):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x * np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x = x * np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over a uint64 array (no per-element
    Python ``bin()`` calls)."""
    x = x.astype(np.uint64, copy=True)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(
        np.int64
    )


def minhash_batch_signatures(
    texts, num_perm: int = 64, k: int = 5, seed: int = 42
) -> np.ndarray:
    """MinHash signatures for a whole batch, (num_perm, n_docs) uint64.

    Fully vectorized across the batch: one flat word array, shingles built
    by k shifted elementwise string concats, ONE hash pass, then per-perm
    salted mixing with per-doc segment minima via ``np.minimum.reduceat``
    — ~50 µs/doc vs ~2.6 ms/doc for the per-doc loop (measured). Short
    docs (< k words) clamp the window at the doc end (repeat-last-word
    shingle) — a deliberate, documented divergence from the per-doc
    ``minhash_signature`` reference implementation; both are
    deterministic. Empty docs get the all-zeros signature.
    """
    a, _b = _minhash_params(num_perm, seed)
    words = pd.Series(texts).astype(str).str.split()
    n = len(words)
    lens = words.str.len().fillna(0).to_numpy().astype(np.int64)
    if lens.sum() == 0:
        return np.zeros((num_perm, n), dtype=np.uint64)
    flat = np.concatenate(
        [w for w in words.to_numpy() if isinstance(w, list) and w]
    ).astype(object)
    nsh = np.where(lens == 0, 0, np.maximum(lens - k + 1, 1))
    W0 = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=W0[1:])
    S0 = np.zeros(n + 1, np.int64)
    np.cumsum(nsh, out=S0[1:])
    total = int(S0[-1])
    gs = np.arange(total) - np.repeat(S0[:-1], nsh) + np.repeat(W0[:-1], nsh)
    ends = np.repeat(W0[1:], nsh)
    sh = pd.Series(flat[gs])
    for j in range(1, k):
        idx = np.minimum(gs + j, ends - 1)
        sh = sh + " " + pd.Series(flat[idx])
    sh_h = pd.util.hash_array(sh.to_numpy(dtype=object))
    sig = np.zeros((num_perm, n), dtype=np.uint64)
    nonempty = nsh > 0
    starts = S0[:-1][nonempty]
    for p in range(num_perm):
        mixed = _mix64(sh_h ^ a[p])
        sig[p, nonempty] = np.minimum.reduceat(mixed, starts)
    return sig


def minhash_batch_signatures_oph(
    texts, num_perm: int = 64, k: int = 5, seed: int = 42
) -> np.ndarray:
    """One-Permutation-Hashing MinHash signatures (Li, Owen & Zhang,
    NIPS 2012) with rotation densification (Shrivastava & Li, ICML
    2014) — the crawl-time enrichment kernel.

    Instead of num_perm independent hash-and-min passes it makes ONE
    pass: each shingle hash claims the signature slot indexed by its
    top log2(num_perm) bits, and each slot
    keeps its min; empty slots borrow (shift-mixed) from the nearest
    filled slot to their left, circularly — the densified estimator is
    unbiased like vanilla MinHash. Cost is O(shingles) instead of
    O(num_perm × shingles); tokenization is Arrow-native
    (utf8_split_whitespace + list_flatten, no Python list-of-lists) —
    measured 2.3× faster end-to-end than the numeric-shingle kernel on
    4k-doc enrichment batches, and it is the crawl's most contended
    stage, so the saving compounds at high parallelism.

    Signature VALUES differ from both other kernels (slot assignment
    replaces per-perm salting) — like ``..._fast`` this is an internal
    fingerprint; use ``minhash_batch_signatures`` where golden values
    matter. Deterministic; docs with no words get all-zero signatures
    (parity with the other kernels).
    """
    if num_perm & (num_perm - 1):
        raise ValueError("num_perm must be a power of two (bit bucketing)")
    arr = pa.array(pd.Series(texts).astype(str)) if not isinstance(
        texts, (pa.Array, pa.ChunkedArray)
    ) else texts
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    split = pc.utf8_split_whitespace(arr)
    flat = split.flatten()
    parents = pc.list_parent_indices(split).to_numpy(zero_copy_only=False)
    nonblank = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    words = flat.to_numpy(zero_copy_only=False)[nonblank]
    parents = parents[nonblank]
    lens = np.bincount(parents, minlength=n).astype(np.int64)
    if len(words) == 0:
        return np.zeros((num_perm, n), dtype=np.uint64)
    wh = pd.util.hash_array(words)  # ONE string-hash pass, word level
    # rolling k-word shingle hashes (same construction as ..._fast)
    nsh = np.where(lens == 0, 0, np.maximum(lens - k + 1, 1))
    W0 = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=W0[1:])
    S0 = np.zeros(n + 1, np.int64)
    np.cumsum(nsh, out=S0[1:])
    total = int(S0[-1])
    gs = np.arange(total) - np.repeat(S0[:-1], nsh) + np.repeat(W0[:-1], nsh)
    ends = np.repeat(W0[1:], nsh)
    sh_h = wh[gs].astype(np.uint64)
    for j in range(1, k):
        idx = np.minimum(gs + j, ends - 1)
        sh_h = _mix64(sh_h ^ wh[idx].astype(np.uint64))
    # one-permutation bucketing: slot = top bits, min per (doc, slot)
    shift = np.uint64(64 - int(num_perm).bit_length() + 1)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), nsh)
    slot = (sh_h >> shift).astype(np.int64)
    composite = doc_idx * num_perm + slot
    sentinel = np.iinfo(np.uint64).max
    sig = np.full(n * num_perm, sentinel, dtype=np.uint64)
    np.minimum.at(sig, composite, sh_h)
    sig = sig.reshape(n, num_perm)
    # rotation densification: empty slots borrow from the nearest filled
    # slot (circular), mixed with the borrow distance so distinct empty
    # runs don't alias
    empty = sig == sentinel
    has_any = nsh > 0
    for d in range(1, num_perm):
        need = empty & has_any[:, None]
        if not need.any():
            break
        donor = np.roll(sig, d, axis=1)
        fill = need & (donor != sentinel)
        sig[fill] = _mix64(donor[fill] ^ np.uint64(d))
        empty &= ~fill
    sig[~has_any] = 0  # wordless docs: all-zero signature, kernel parity
    return sig.T.copy()


def minhash_fp_and_bands(
    texts, num_perm: int = 64, num_bands: int = 4, seed: int = 42,
    fast: bool = False,
):
    """(fingerprint, band hashes) per doc from batch signatures — the
    whole-signature and per-band uint64 fold of the signature matrix.
    ``fast=True`` uses the OPH signature kernel (crawl-time enrichment
    path — one hash-and-min pass instead of num_perm)."""
    sig_fn = minhash_batch_signatures_oph if fast else minhash_batch_signatures
    sig = sig_fn(texts, num_perm=num_perm, seed=seed)
    rows = num_perm // num_bands

    def fold(mat: np.ndarray) -> np.ndarray:
        acc = _mix64(mat[0] ^ np.uint64(0x9E3779B97F4A7C15))
        for p in range(1, mat.shape[0]):
            acc = _mix64(acc ^ mat[p])
        return acc

    fps = fold(sig)
    bands = np.stack(
        [fold(sig[b * rows:(b + 1) * rows]) for b in range(num_bands)]
    )
    return fps, bands


def minhash_signature(
    text: str, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """num_perm minhash values: murmur-style xor-mix of each shingle hash
    under num_perm fixed salts, min over shingles — pure uint64 numpy
    (wraparound multiply), fully vectorized (num_perm × shingles)."""
    sh = _shingle_hashes(text)
    if sh.size == 0:
        return np.zeros(len(a), dtype=np.uint64)
    x = sh[None, :].astype(np.uint64) ^ a[:, None]
    x = x * np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x = x * np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    x ^= b[:, None]
    return x.min(axis=1)


# ---------------------------------------------------------------------------

def exact_hash_batch(df: pd.DataFrame, text_col: str, id_col: str,
                     keep_cols: Sequence[str] = ()) -> pd.DataFrame:
    """:func:`exact_dedup`'s map kernel: (id, 64-bit content hash,
    passengers) per row."""
    out = {
        id_col: df[id_col],
        "__h": pd.util.hash_array(
            df[text_col].to_numpy(dtype=object)
        ).astype("uint64"),
    }
    for c in keep_cols:
        out[c] = df[c]
    return pd.DataFrame(out)


def exact_first_wins(part: pd.DataFrame, id_col: str,
                     keep_cols: Sequence[str] = ()) -> pd.DataFrame:
    """:func:`exact_dedup`'s reduce kernel over any set of whole hash
    groups: one row per hash, the min id (with its passengers) and the
    group size as ``dup_count``."""
    keep_cols = list(keep_cols)
    if not keep_cols:
        g = part.groupby("__h", sort=False)[id_col].agg(
            ["min", "size"]
        ).reset_index()
        return pd.DataFrame(
            {id_col: g["min"], "dup_count": g["size"].astype("int64")}
        )
    # min-id row per hash, passengers intact; sizes align because
    # both head(1) and size() follow first-appearance group order
    # over the contiguously sorted partition
    part = part.sort_values(["__h", id_col], kind="mergesort")
    gb = part.groupby("__h", sort=False)
    head = gb.head(1)
    out = head[[id_col] + keep_cols].reset_index(drop=True)
    out.insert(1, "dup_count", gb.size().to_numpy().astype("int64"))
    return out


def exact_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
    keep_cols: Sequence[str] = (),
) -> rd.Dataset:
    """Exact duplicate groups: content-hash each batch (vectorized), then
    hash-partitioned first-wins — ONE vectorized pandas groupby per
    partition, never a Python call per distinct content (group count
    scales with the corpus). Returns one row per distinct content:
    (doc_id = min id, dup_count). The shuffle moves (hash, id) pairs, not
    document text (SURVEY.md §2.7 D1).

    ``keep_cols`` names passenger columns carried through on the WINNING
    (min-id) row — lets a curation pipeline keep its precomputed stats
    without a survivors⋈source re-join afterward, at the cost of those
    columns riding the (hash, id) shuffle."""
    from .relational import grouped_apply

    keep_cols = list(keep_cols)
    return grouped_apply(
        ds.map_batches(partial(exact_hash_batch, text_col=text_col,
                               id_col=id_col, keep_cols=keep_cols),
                       batch_format="pandas"),
        ["__h"], partial(exact_first_wins, id_col=id_col,
                         keep_cols=keep_cols),
        num_partitions=num_partitions,
    )


def exact_hash_batch_arrow(t: pa.Table, text_col: str, id_col: str,
                           keep_cols: Sequence[str] = ()) -> pa.Table:
    """Arrow form of :func:`exact_hash_batch` (same hash)."""
    h = pd.util.hash_array(
        t.column(text_col).to_numpy(zero_copy_only=False)
        .astype(object)).astype("uint64")
    cols = {id_col: t.column(id_col),
            "__h": pa.array(h, type=pa.uint64())}
    for c in keep_cols:
        cols[c] = t.column(c)
    return pa.table(cols)


def exact_first_wins_arrow(t: pa.Table, id_col: str,
                           keep_cols: Sequence[str] = ()) -> pa.Table:
    """Arrow form of :func:`exact_first_wins`: same winners, same
    ``dup_count``, output columns (id, dup_count, *keep_cols)."""
    t = t.sort_by([("__h", "ascending"), (id_col, "ascending")])
    h = t.column("__h").to_numpy(zero_copy_only=False)
    new = np.r_[True, h[1:] != h[:-1]] if len(h) else \
        np.zeros(0, dtype=bool)
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, len(h)]) if len(starts) else \
        np.zeros(0, dtype=np.int64)
    win = t.take(pa.array(starts, type=pa.int64()))
    out = win.select([id_col] + list(keep_cols))
    return out.add_column(
        1, "dup_count", pa.array(sizes.astype("int64")))


def exact_dedup_arrow(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
    keep_cols: Sequence[str] = (),
) -> rd.Dataset:
    """:func:`exact_dedup` with NESTED passenger columns kept Arrow
    end-to-end — same semantics and same content hash (so same winners
    and dup counts), but every stage is ``batch_format="pyarrow"`` and
    the shuffle runs through ``grouped_apply_arrow``: a list<struct>
    ``segments`` passenger rides the (hash, id) exchange as Arrow
    buffers instead of degrading to per-row Python objects (the
    multimodal export's dedup path). Output column order matches the
    pandas form: (id, dup_count, *keep_cols)."""
    from .relational import grouped_apply_arrow

    keep_cols = list(keep_cols)
    return grouped_apply_arrow(
        ds.map_batches(partial(exact_hash_batch_arrow, text_col=text_col,
                               id_col=id_col, keep_cols=keep_cols),
                       batch_format="pyarrow"),
        ["__h"], partial(exact_first_wins_arrow, id_col=id_col,
                         keep_cols=keep_cols),
        num_partitions=num_partitions,
    )


class _MinhashBands:
    """Stage: batch-vectorized minhash banding; emits
    (band_id, band_hash, doc_id) rows per document."""

    def __init__(self, text_col: str, id_col: str, num_perm: int, bands: int):
        self.text_col, self.id_col = text_col, id_col
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        sig = minhash_batch_signatures(df[self.text_col],
                                       num_perm=self.num_perm)
        band_hash = np.empty((self.bands, n), dtype=np.uint64)
        for bi in range(self.bands):
            chunk = sig[bi * self.rows_per_band:(bi + 1) * self.rows_per_band]
            acc = _mix64(chunk[0] ^ np.uint64(0x9E3779B97F4A7C15 + bi))
            for p in range(1, chunk.shape[0]):
                acc = _mix64(acc ^ chunk[p])
            band_hash[bi] = acc
        return pd.DataFrame(
            {
                "band_id": np.repeat(
                    np.arange(self.bands, dtype="int32"), n
                ),
                "band_hash": band_hash.reshape(-1),
                self.id_col: np.tile(df[self.id_col].to_numpy(), self.bands),
            }
        )


def jaccard(text_a: str, text_b: str, k: int = 5) -> float:
    sa, sb = set(_shingle_hashes(text_a, k)), set(_shingle_hashes(text_b, k))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def verify_pairs_with_texts(
    pairs: rd.Dataset,
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.7,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Attach both texts to candidate (id_a, id_b) pairs and verify true
    Jaccard — fully streamed, nothing materializes on the driver.

    Co-partition scheme (2 shuffles, document text moves exactly ONCE):
      1. explode each pair into two half-rows (join_id=id_a or id_b,
         carrying both pair ids); union with (id, text) doc rows; one
         ``grouped_apply`` by hash(join_id) merges each half with its
         text — only texts of candidate ids survive this stage.
      2. ``grouped_apply`` by hash(id_a, id_b) reassembles the two
         halves, dedups multi-band duplicates, computes exact Jaccard,
         filters by ``threshold``.

    This replaces the round-1 driver-side ``{id: text}`` broadcast
    (driver OOM at 100 TB); outputs are byte-identical (pinned by
    tests/test_dedup.py goldens).
    """
    from .relational import grouped_apply

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame(
            {
                "__jid": np.concatenate(
                    [df["id_a"].to_numpy(), df["id_b"].to_numpy()]
                ),
                "id_a": np.tile(df["id_a"].to_numpy(), 2),
                "id_b": np.tile(df["id_b"].to_numpy(), 2),
                "__slot": np.repeat(np.array([0, 1], dtype="int8"), n),
                "__text": np.full(2 * n, None, dtype=object),
            }
        )

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame(
            {
                "__jid": df[id_col].to_numpy(),
                "id_a": np.full(n, None, dtype=object),
                "id_b": np.full(n, None, dtype=object),
                "__slot": np.full(n, -1, dtype="int8"),
                "__text": df[text_col].to_numpy(dtype=object),
            }
        )

    both = pairs.map_batches(explode, batch_format="pandas").union(
        docs.select_columns([id_col, text_col]).map_batches(
            doc_rows, batch_format="pandas"
        )
    )

    def attach(part: pd.DataFrame) -> pd.DataFrame:
        texts = part.loc[part["__slot"] == -1, ["__jid", "__text"]]
        texts = texts.drop_duplicates(subset="__jid").rename(
            columns={"__text": "__t"}
        )
        halves = part.loc[part["__slot"] >= 0,
                          ["__jid", "id_a", "id_b", "__slot"]]
        if halves.empty:
            return pd.DataFrame(
                {"id_a": [], "id_b": [], "__slot": [], "__t": []}
            )
        out = halves.merge(texts, on="__jid", how="left")
        return out[["id_a", "id_b", "__slot", "__t"]]

    attached = grouped_apply(both, ["__jid"], attach,
                             num_partitions=num_partitions)

    def reassemble(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates(subset=["id_a", "id_b", "__slot"])
        a = part[part["__slot"] == 0][["id_a", "id_b", "__t"]].rename(
            columns={"__t": "__ta"}
        )
        b = part[part["__slot"] == 1][["id_a", "id_b", "__t"]].rename(
            columns={"__t": "__tb"}
        )
        m = a.merge(b, on=["id_a", "id_b"], how="inner")
        if m.empty:
            return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
        jac = np.fromiter(
            (jaccard(str(ta), str(tb))
             for ta, tb in zip(m["__ta"], m["__tb"])),
            dtype="float64", count=len(m),
        )
        m = m.assign(jaccard=jac)
        m = m[m["jaccard"] >= threshold]
        # ids travelled through None-padded object columns — restore the
        # concrete dtype (int64 for int ids, object for strings)
        return m[["id_a", "id_b", "jaccard"]].infer_objects()

    return grouped_apply(attached, ["id_a", "id_b"], reassemble,
                         num_partitions=num_partitions)


def minhash_lsh_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    threshold: float = 0.7,
) -> rd.Dataset:
    """MinHash+LSH near-duplicate pairs, verified by true Jaccard.

    Pipeline: signature+banding (actor pool, params cached per actor) →
    band-hash partitioned candidate pairs (the shuffle moves small
    (int32, uint64, id) rows) → streamed text-join verification
    (``verify_pairs_with_texts`` — document text shuffles once; NOTHING
    is materialized on the driver) → exact Jaccard filter, with pair
    dedup inside the reassembly partition. Returns (id_a, id_b, jaccard)
    with id_a < id_b.
    """
    # plain tasks: banding state is a handful of ints/strings (the
    # minhash salts regenerate per batch from the fixed seed), so tasks
    # skip actor-pool spin-up with nothing to amortize
    bands_ds = ds.map_batches(
        _MinhashBands(text_col, id_col, num_perm, bands),
        batch_format="pandas",
    )

    def partition_pairs(part: pd.DataFrame) -> pd.DataFrame:
        """All candidate pairs within this hash partition of band buckets.

        The Python loop runs only over buckets holding ≥2 docs (true LSH
        collisions — rare); singleton buckets are filtered vectorized.
        """
        sizes = part.groupby(["band_id", "band_hash"], sort=False)[
            id_col
        ].transform("nunique")
        hot = part[sizes >= 2]
        out_a, out_b = [], []
        for _key, g in hot.groupby(["band_id", "band_hash"], sort=False):
            ids = sorted(g[id_col].unique().tolist())
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    out_a.append(ids[i])
                    out_b.append(ids[j])
        return pd.DataFrame({"id_a": out_a, "id_b": out_b})

    from .relational import grouped_apply

    cand = grouped_apply(
        bands_ds, ["band_id", "band_hash"], partition_pairs, num_partitions=32
    )
    return verify_pairs_with_texts(
        cand, ds, text_col=text_col, id_col=id_col, threshold=threshold
    )


def ngram_jaccard_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    threshold: float = 0.5,
    num_partitions: int = 32,
    max_shingle_df: int | None = 256,
    score: str = "jaccard",
) -> rd.Dataset:
    """EXACT all-pairs word-k-gram Jaccard via a distributed inverted
    shingle index (no LSH approximation — SQL-oracle-checkable below the
    stop-shingle cutoff, see skew note).

    ``score="containment"`` switches the pair statistic to the
    asymmetric CONTAINMENT coefficient |∩| / min(|A|, |B|) — the
    quote/subset detector: a short doc pasted inside a long one scores
    ~1.0 here while its Jaccard can be arbitrarily small, so threshold
    semantics differ fundamentally. Same index, same exchanges, only
    the final vectorized division changes; the output column is named
    after the score.

    Shingle tokenization splits on single spaces (DuckDB
    ``string_split(text, ' ')`` parity); docs with < k words contribute
    one whole-text shingle (list-slice clamp parity).

    Stages: per-batch distinct-shingle explode carrying the per-doc
    shingle count → ``grouped_apply`` by shingle string (co-locates all
    holders of a shingle; emits per-partition partial pair intersection
    counts) → ``grouped_apply`` by (id_a, id_b) sums partials and
    computes jaccard = |∩| / (n_a + n_b − |∩|).

    Skew note: a shingle shared by m docs would emit O(m²) pair rows in
    the self-merge — a single boilerplate shingle at corpus scale is a
    job-killer. ``max_shingle_df`` is the standard stop-shingle cutoff:
    shingles whose document frequency exceeds it are dropped BEFORE the
    self-merge (exact decision — all holders of a shingle are co-located
    by construction, so the df is the true global count, not a sample),
    bounding per-shingle fanout at max_shingle_df². Effect on results: a
    dropped shingle no longer contributes to any pair's intersection
    count while each doc's denominator still counts it, so reported
    jaccard is a LOWER BOUND and recall can drop for pairs whose overlap
    rides on boilerplate — exactly the pairs near-dup pipelines want to
    discount. Per-partition dropped-shingle counts are logged. With
    ``max_shingle_df=None`` (or a cutoff no shingle reaches — sf0.01's
    max df is 3) the result is exactly the SQL oracle's.
    """
    from .relational import grouped_apply

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ids_out, sh_out, n_out = [], [], []
        for i, t in zip(df[id_col], df[text_col].astype(str)):
            words = t.split(" ")
            if len(words) < k:
                grams = [" ".join(words)]
            else:
                grams = [" ".join(words[j:j + k])
                         for j in range(len(words) - k + 1)]
            uniq = np.unique(np.array(grams, dtype=object))
            ids_out.append(np.full(len(uniq), i, dtype=object))
            sh_out.append(uniq)
            n_out.append(np.full(len(uniq), len(uniq), dtype=np.int64))
        return pd.DataFrame(
            {
                id_col: np.concatenate(ids_out) if ids_out else [],
                "__sh": np.concatenate(sh_out) if sh_out else [],
                "__n": np.concatenate(n_out) if n_out else [],
            }
        )

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pandas"
    )

    def pair_partials(part: pd.DataFrame) -> pd.DataFrame:
        """Self-merge per shingle → partial pair intersection counts
        (carrying each side's total shingle count)."""
        if max_shingle_df is not None and len(part):
            df_counts = part["__sh"].value_counts()
            hot = df_counts.index[df_counts > max_shingle_df]
            if len(hot):
                import logging

                logging.getLogger(__name__).warning(
                    "ngram_jaccard_pairs: dropped %d stop-shingles with "
                    "df > %d (max df seen: %d)",
                    len(hot), max_shingle_df, int(df_counts.iloc[0]),
                )
                part = part[~part["__sh"].isin(hot)]
        m = part.merge(part, on="__sh", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if m.empty:
            return pd.DataFrame(
                {"id_a": [], "id_b": [], "__inter": pd.Series([], dtype="int64"),
                 "__na": pd.Series([], dtype="int64"),
                 "__nb": pd.Series([], dtype="int64")}
            )
        g = m.groupby([f"{id_col}_a", f"{id_col}_b"], sort=False).agg(
            __inter=("__sh", "size"), __na=("__n_a", "first"),
            __nb=("__n_b", "first"),
        ).reset_index()
        return g.rename(columns={f"{id_col}_a": "id_a",
                                 f"{id_col}_b": "id_b"})

    partials = grouped_apply(exploded, ["__sh"], pair_partials,
                             num_partitions=num_partitions)

    def merge_pairs(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby(["id_a", "id_b"], sort=False).agg(
            __inter=("__inter", "sum"), __na=("__na", "first"),
            __nb=("__nb", "first"),
        ).reset_index()
        if score == "containment":
            val = g["__inter"] / np.minimum(g["__na"], g["__nb"])
        else:
            val = g["__inter"] / (g["__na"] + g["__nb"] - g["__inter"])
        g = g.assign(**{score: val.astype("float64")})
        g = g[g[score] >= threshold]
        return g[["id_a", "id_b", score]]

    return grouped_apply(partials, ["id_a", "id_b"], merge_pairs,
                         num_partitions=num_partitions)


def _word_kgrams(texts, k: int):
    """Per-doc distinct word-k-gram strings (DuckDB string_split parity:
    single-space split, whole-text gram for docs shorter than k), plus a
    doc index per gram — flat arrays ready for one vectorized membership
    probe."""
    sh_out, doc_of = [], []
    for i, t in enumerate(texts):
        words = t.split(" ")
        if len(words) < k:
            grams = [" ".join(words)]
        else:
            grams = [" ".join(words[j:j + k])
                     for j in range(len(words) - k + 1)]
        uniq = np.unique(np.array(grams, dtype=object))
        sh_out.append(uniq)
        doc_of.append(np.full(len(uniq), i, dtype=np.int64))
    if not sh_out:
        return (np.array([], dtype=object), np.array([], dtype=np.int64))
    return np.concatenate(sh_out), np.concatenate(doc_of)


def contamination_hits(
    corpus: rd.Dataset,
    benchmark: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
) -> rd.Dataset:
    """Benchmark-contamination check: flag corpus documents sharing any
    word-k-gram with a benchmark/eval set — the decontamination pass
    every pre-training pipeline runs before export (n-gram overlap is
    the standard published protocol).

    Shape: the benchmark side is SMALL by nature (eval suites are
    10^5-10^6 shingles vs a 100-TB corpus), so its distinct shingles are
    collected once and broadcast via ``ray.put`` — every corpus batch
    probes the shared set in place of a corpus-scale shuffle join
    (driver memory is O(benchmark shingles), the documented bound).
    The corpus side streams: per-batch distinct-shingle explode and one
    vectorized ``isin`` + ``bincount`` per batch. Emits
    (id, n_contaminated) for docs with ≥ 1 shared shingle.
    """
    import ray

    from .relational import resolve_broadcast

    def bench_shingles(df: pd.DataFrame) -> pd.DataFrame:
        sh, _doc = _word_kgrams(df[text_col].astype(str).to_numpy(), k)
        return pd.DataFrame({"__sh": pd.unique(pd.Series(sh, dtype=object))})

    bt = (
        benchmark.select_columns([text_col])
        .map_batches(bench_shingles, batch_format="pandas")
        .to_pandas()
    )
    bench_ref = ray.put(
        pd.Index(pd.unique(bt["__sh"])) if len(bt) else pd.Index([])
    )
    refs = [bench_ref]  # nested: ship the ref, not the value

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        bench_idx = resolve_broadcast(refs[0])
        sh, doc_of = _word_kgrams(df[text_col].astype(str).to_numpy(), k)
        if not len(sh):
            return pd.DataFrame({
                id_col: df[id_col].iloc[:0],
                "n_contaminated": pd.Series([], dtype="int64"),
            })
        hit = pd.Series(sh).isin(bench_idx).to_numpy()
        counts = np.bincount(doc_of[hit], minlength=len(df))
        keep = counts > 0
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[keep],
            "n_contaminated": counts[keep].astype("int64"),
        })

    return corpus.select_columns([id_col, text_col]).map_batches(
        probe, batch_format="pandas"
    )


def _local_components(edges: pd.DataFrame, id_a: str,
                      id_b: str) -> pd.DataFrame:
    """Driver-side union-find (path-halving) for pair lists under the
    size gate: O(m α) one-core work beats O(diameter) distributed
    exchange rounds by 10x+ at this scale. Returns (node, label) with
    label = min id of the component, identical to the partitioned
    path."""
    a = edges[id_a].to_numpy()
    b = edges[id_b].to_numpy()
    nodes = np.unique(np.concatenate([a, b]))  # sorted, any dtype
    ai = np.searchsorted(nodes, a)
    bi = np.searchsorted(nodes, b)
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]   # path halving
            x = parent[x]
        return x

    for x, y in zip(ai, bi):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            # union by smaller ORIGINAL id so the root's id is the
            # component min without a second pass
            if nodes[rx] < nodes[ry]:
                parent[ry] = rx
            else:
                parent[rx] = ry
    roots = np.array([find(i) for i in range(len(nodes))],
                     dtype=np.int64)
    return pd.DataFrame({"node": nodes, "label": nodes[roots]})


def _column_dtype(ds: rd.Dataset, col: str):
    """pandas dtype of ``col`` read from ``ds``'s schema (an empty
    dataset's ``to_pandas()`` has no columns); int64 when no schema
    survives."""
    sch = ds.schema()
    if sch is None or col not in sch.names:
        return "int64"
    base = sch.base_schema
    t = base.types[base.names.index(col)]
    return t.to_pandas_dtype() if isinstance(t, pa.DataType) else t


def connected_components(
    pairs: rd.Dataset,
    id_a: str = "id_a",
    id_b: str = "id_b",
    num_partitions: int = 16,
    max_iters: int = 25,
    local_threshold: int = 2_000_000,
) -> rd.Dataset:
    """Duplicate-cluster resolution: connected components over a
    near-dup pair list via distributed min-label propagation (iterative
    dataset-native algorithm — SURVEY.md §2 custom-operator case (a)).

    Each iteration co-partitions labels with edges by node (one
    shuffle), pushes every node's current label to its neighbors, and
    takes the per-node min (second shuffle); a per-node ``changed`` flag
    is reduced to one scalar for the convergence check, so the driver
    loop terminates after O(component diameter) rounds without ever
    materializing the label table. Returns (node, label) with label =
    min id of the node's component. Pair lists are output-scale (dup
    pairs, not the corpus), and every step is hash-partitioned — the
    100-TB path needs no driver-side union-find.

    Size gate: at or below ``local_threshold`` pairs (default 2M, ~32
    MB of ids — bounded, documented driver memory) a driver-side
    union-find (:func:`_local_components`) replaces the exchange loop;
    even two distributed rounds cost more wall than the whole local
    solve at that size. ``local_threshold <= 0`` forces the partitioned
    path without materializing or counting the pairs.
    """
    from .relational import grouped_apply

    def no_components() -> rd.Dataset:
        ids = pd.Series(dtype=_column_dtype(pairs, id_a))
        return rd.from_pandas(pd.DataFrame({"node": ids, "label": ids}))

    if local_threshold > 0:
        pairs = pairs.materialize()
        if pairs.count() <= local_threshold:
            df = pairs.to_pandas()
            if len(df) == 0:
                return no_components()
            return rd.from_pandas(_local_components(df, id_a, id_b))

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": pd.concat([df[id_a], df[id_b]], ignore_index=True),
                "peer": pd.concat([df[id_b], df[id_a]], ignore_index=True),
            }
        )

    edges = pairs.map_batches(to_edges, batch_format="pandas").materialize()

    def init_labels(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("node", sort=False)["peer"].min().reset_index()
        return pd.DataFrame(
            {
                "node": g["node"],
                "label": np.where(g["peer"] < g["node"], g["peer"],
                                  g["node"]),
            }
        )

    labels = grouped_apply(edges, ["node"], init_labels,
                           num_partitions=num_partitions)

    def tag_labels(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"], "peer": None,
                             "label": df["label"], "__k": "l"})

    def tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["node"], "peer": df["peer"],
                             "label": None, "__k": "e"})

    def propagate(part: pd.DataFrame) -> pd.DataFrame:
        lab = part.loc[part["__k"] == "l", ["node", "label"]]
        ed = part.loc[part["__k"] == "e", ["node", "peer"]]
        m = ed.merge(lab, on="node", how="inner")
        return pd.DataFrame(
            {
                "node": pd.concat([m["peer"], lab["node"]],
                                  ignore_index=True),
                "label": pd.concat([m["label"], lab["label"]],
                                   ignore_index=True),
                "__self": np.concatenate(
                    [np.zeros(len(m), bool), np.ones(len(lab), bool)]
                ),
            }
        )

    def reduce_min(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("node", sort=False)["label"].min().reset_index()
        old = part.loc[part["__self"]].set_index("node")["label"]
        changed = (
            g["label"] < old.reindex(g["node"]).to_numpy()
        )
        return g.assign(changed=changed.astype("int64"))

    for _ in range(max_iters):
        both = labels.map_batches(tag_labels, batch_format="pandas").union(
            edges.map_batches(tag_edges, batch_format="pandas")
        )
        proposed = grouped_apply(both, ["node"], propagate,
                                 num_partitions=num_partitions)
        new_labels = grouped_apply(proposed, ["node"], reduce_min,
                                   num_partitions=num_partitions).materialize()
        n_changed = new_labels.sum("changed")
        labels = new_labels.drop_columns(["changed"])
        if not n_changed:
            # an empty pair list leaves a column-less result; give it
            # the local path's typed (node, label) header
            return labels if new_labels.count() else no_components()
    # labels are still moving: returning them silently would split true
    # components. Min-label propagation needs O(component diameter)
    # rounds — raise rather than emit wrong clusters.
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} iterations "
        "(a component's diameter exceeds max_iters); raise max_iters"
    )


# ---------------------------------------------------------------------------

_SIMHASH_NBITS = 64


def simhash_batch(texts: pd.Series, seed: int = 42) -> np.ndarray:
    """64-bit SimHash per text (word-feature, vectorized per doc)."""
    out = np.empty(len(texts), dtype=np.uint64)
    for i, t in enumerate(texts):
        words = np.unique(np.array(str(t).split(), dtype=object))
        if words.size == 0:
            out[i] = 0
            continue
        h = pd.util.hash_array(words)
        bits = ((h[:, None] >> np.arange(_SIMHASH_NBITS, dtype=np.uint64)) & 1)
        v = np.where(bits == 1, 1, -1).sum(axis=0)
        out[i] = np.packbits(
            (v > 0).astype(np.uint8), bitorder="little"
        ).view(np.uint64)[0]
    return out


def simhash_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
) -> rd.Dataset:
    """SimHash near-dup pairs: fingerprint per batch, then bucket by the 4
    16-bit quarters of the fingerprint (two fingerprints within hamming
    distance 3 share at least one identical quarter — pigeonhole), verify
    hamming distance within buckets (SWAR popcount, no per-pair Python).
    Returns (id_a, id_b, hamming)."""

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {id_col: df[id_col], "__fp": simhash_batch(df[text_col])}
        )

    fps = ds.map_batches(fp, batch_format="pandas")

    def quarters(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        f = df["__fp"].to_numpy(dtype=np.uint64)
        for q in range(4):
            part = (f >> np.uint64(16 * q)) & np.uint64(0xFFFF)
            rows.append(
                pd.DataFrame(
                    {
                        "q": np.full(len(df), q, dtype="int8"),
                        "qh": part.astype("int64"),
                        id_col: df[id_col].to_numpy(),
                        "__fp": f,
                    }
                )
            )
        return pd.concat(rows, ignore_index=True)

    def partition_buckets(part: pd.DataFrame) -> pd.DataFrame:
        """Hamming-verify candidates inside each (q, qh) bucket of this
        hash partition; loops only over buckets with ≥2 distinct docs."""
        sizes = part.groupby(["q", "qh"], sort=False)[id_col].transform(
            "nunique"
        )
        hot = part[sizes >= 2]
        out_a, out_b, out_h = [], [], []
        for _key, g in hot.groupby(["q", "qh"], sort=False):
            g = g.drop_duplicates(subset=[id_col]).sort_values(id_col)
            ids = g[id_col].to_numpy()
            f = g["__fp"].to_numpy(dtype=np.uint64)
            for i in range(len(ids)):
                ham = popcount64(f[i] ^ f[i + 1 :])
                for j in np.nonzero(ham <= max_hamming)[0]:
                    out_a.append(ids[i])
                    out_b.append(ids[i + 1 + j])
                    out_h.append(int(ham[j]))
        return pd.DataFrame(
            {"id_a": out_a, "id_b": out_b,
             "hamming": np.array(out_h, dtype="int64")}
        )

    from .relational import grouped_apply

    pairs = grouped_apply(
        fps.map_batches(quarters, batch_format="pandas"),
        ["q", "qh"], partition_buckets, num_partitions=32,
    )

    def dd(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates(subset=["id_a", "id_b"])

    # same pair can surface from up to 4 quarters → distributed dedup
    # (co-locate by pair key; no coalesce-to-one)
    return grouped_apply(pairs, ["id_a", "id_b"], dd, num_partitions=16)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


def _block_of(ids: np.ndarray, num_blocks: int) -> np.ndarray:
    return (pd.util.hash_array(np.asarray(ids)) % num_blocks).astype(
        np.int64
    )


def embedding_near_dup(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    num_blocks: int = 8,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """EXACT embedding-cosine near-dup pairs via block-pair partitioning
    — nothing materializes on the driver (replaces the round-1 full-
    matrix ``ray.put`` broadcast, a driver OOM at scale).

    Each vector is assigned block b = hash(id) % B and replicated to the
    B block-pair partitions {(min(b,x), max(b,x)) : x < B}; one
    ``grouped_apply`` co-locates every unordered block pair, and each
    partition does one float64 matmul between its two (or one, diagonal)
    blocks. Replication factor is B (choose B so a block fits a worker);
    compute is the inherent O(n²) of EXACT all-pairs — the approximate
    scale path is ``embedding_near_dup_ivf``. Each qualifying pair is
    emitted exactly once (its blocks meet in exactly one partition).
    Returns (id_a, id_b, cosine) with id_a < id_b, cosine in float64.
    """
    from .relational import grouped_apply

    B = num_blocks
    if num_partitions is None:
        num_partitions = B * (B + 1) // 2

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        blk = _block_of(df[id_col].to_numpy(), B)
        rep = np.repeat(np.arange(n), B)
        partner = np.tile(np.arange(B, dtype=np.int64), n)
        b = blk[rep]
        i = np.minimum(b, partner)
        j = np.maximum(b, partner)
        out = df.iloc[rep][[id_col, vec_col]].reset_index(drop=True)
        out["__blk"] = b
        out["__pk"] = i * B + j
        # diagonal (b == partner) appears once per row by construction
        return out.drop_duplicates(subset=[id_col, "__pk"])

    replicated = ds.select_columns([id_col, vec_col]).map_batches(
        replicate, batch_format="pandas"
    )

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for pk, sub in part.groupby("__pk", sort=False):
            i, j = divmod(int(pk), B)
            sub = sub.drop_duplicates(subset=[id_col, "__blk"])
            left = sub[sub["__blk"] == i]
            right = sub[sub["__blk"] == j]
            if left.empty or right.empty:
                continue
            L = np.stack(left[vec_col].to_numpy()).astype(np.float64)
            L /= np.maximum(np.linalg.norm(L, axis=1, keepdims=True), 1e-12)
            lids = left[id_col].to_numpy()
            if i == j:
                sims = L @ L.T
                ai, bi = np.nonzero(sims >= threshold)
                keep = lids[ai] < lids[bi]
                outs.append(pd.DataFrame(
                    {"id_a": lids[ai][keep], "id_b": lids[bi][keep],
                     "cosine": sims[ai, bi][keep].astype("float64")}
                ))
            else:
                R = np.stack(right[vec_col].to_numpy()).astype(np.float64)
                R /= np.maximum(
                    np.linalg.norm(R, axis=1, keepdims=True), 1e-12
                )
                rids = right[id_col].to_numpy()
                sims = L @ R.T
                ai, bi = np.nonzero(sims >= threshold)
                a, b = lids[ai], rids[bi]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                outs.append(pd.DataFrame(
                    {"id_a": lo, "id_b": hi,
                     "cosine": sims[ai, bi].astype("float64")}
                ))
        if not outs:
            return pd.DataFrame({"id_a": [], "id_b": [],
                                 "cosine": pd.Series([], dtype="float64")})
        return pd.concat(outs, ignore_index=True)

    return grouped_apply(replicated, ["__pk"], per_partition,
                         num_partitions=num_partitions)


def embedding_near_dup_ivf(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    num_cells: int = 16,
    assign_top: int = 2,
    sample_size: int = 2048,
    seed: int = 42,
) -> rd.Dataset:
    """Approximate embedding near-dup: bucket by IVF cell and compare
    only within cells — the 100-TB path (compute ∝ n²/cells instead of
    n²). Each vector is assigned its ``assign_top`` nearest cells
    (primary + neighbor, catching boundary pairs); within-cell pairs are
    found by one matmul per cell; pair duplicates (pairs sharing >1
    cell) are deduped by a pair-keyed ``grouped_apply``. Centroids come
    from a deterministic driver-side sample (tiny — same pattern as
    ``similarity.ivf_topk``). Recall vs the exact path is pinned by
    tests/test_dedup.py."""
    import ray

    from .relational import grouped_apply
    from .similarity import train_centroids

    from .relational import resolve_broadcast

    C = train_centroids(ds, vec_col=vec_col, num_cells=num_cells,
                        sample_size=sample_size, seed=seed, id_col=id_col)
    cref = ray.put(C)
    refs = [cref]  # nested so Ray ships the ref, not the resolved value

    def assign_batch(df: pd.DataFrame) -> pd.DataFrame:
        C_ = resolve_broadcast(refs[0])
        M = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
        t = min(assign_top, C_.shape[0])
        cells = np.argsort(-(M @ C_.T), axis=1, kind="stable")[:, :t]
        n = len(df)
        rep = np.repeat(np.arange(n), t)
        out = df.iloc[rep][[id_col, vec_col]].reset_index(drop=True)
        out["__cell"] = cells.reshape(-1)
        return out

    assigned = ds.select_columns([id_col, vec_col]).map_batches(
        assign_batch, batch_format="pandas"
    )

    def per_partition(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _cell, sub in part.groupby("__cell", sort=False):
            sub = sub.drop_duplicates(subset=[id_col])
            if len(sub) < 2:
                continue
            M = np.stack(sub[vec_col].to_numpy()).astype(np.float64)
            M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
            ids = sub[id_col].to_numpy()
            sims = M @ M.T
            ai, bi = np.nonzero(sims >= threshold)
            keep = ids[ai] < ids[bi]
            outs.append(pd.DataFrame(
                {"id_a": ids[ai][keep], "id_b": ids[bi][keep],
                 "cosine": sims[ai, bi][keep].astype("float64")}
            ))
        if not outs:
            return pd.DataFrame({"id_a": [], "id_b": [],
                                 "cosine": pd.Series([], dtype="float64")})
        return pd.concat(outs, ignore_index=True)

    pairs = grouped_apply(assigned, ["__cell"], per_partition,
                          num_partitions=min(num_cells, 32))

    def dd(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates(subset=["id_a", "id_b"])

    return grouped_apply(pairs, ["id_a", "id_b"], dd, num_partitions=16)


def semdedup(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    threshold: float = 0.95,
    iters: int = 3,
    seed: int = 42,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """SemDeDup-style SEMANTIC dedup (Abbas et al. 2023,
    arXiv:2303.09540): cluster the embeddings with distributed k-means,
    then within each cluster remove every row whose cosine to a
    higher-priority row reaches ``threshold`` — the curation pass that
    catches paraphrases MinHash misses. Priority is (centroid
    similarity DESC, id ASC), so each duplicate group's survivor is its
    centroid-nearest member and the rule is deterministic at any
    parallelism.

    Emits one row per input: (id, cluster, centroid_sim, keep,
    near_id, near_cos) — removed rows carry the first higher-priority
    row they matched and the true float64 cosine (so every removal is
    auditable as a genuine near-dup pair); kept rows carry
    near_id = -1, near_cos = NaN. Guarantees: (a) every (id, near_id)
    removal pair has exact cosine ≥ threshold; (b) no two KEPT rows in
    the same cluster are near-dups at threshold (if they were, the
    lower-priority one would have been removed) — both machine-checked
    by the ``semdedup`` oracle query against the exact block-pair set.

    Scale shape: k-means is the documented model-constant-partials
    pass (`similarity.kmeans`); then centroids broadcast once and ONE
    cluster-hash exchange co-locates each cluster; the in-cell work is
    one float64 matmul + a strictly-lower-triangle max (O(n_cell²),
    the same inherent cost family as ``embedding_near_dup``'s diagonal
    blocks — at 100 TB raise ``k`` so cells fit a worker; cross-cluster
    near-dups are out of scope BY DESIGN, the paper's approximation)."""
    import ray

    from .relational import grouped_apply, resolve_broadcast
    from .similarity import _stack_normalized, kmeans

    C, _ = kmeans(ds, vec_col=vec_col, id_col=id_col, k=k,
                  iters=iters, seed=seed)
    refs = [ray.put(C)]

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        Cw = resolve_broadcast(refs[0])
        X = _stack_normalized(df[vec_col])
        S = X @ Cw.T
        a = np.argmax(S, axis=1)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            vec_col: df[vec_col],
            "cluster": a.astype("int64"),
            "centroid_sim": S[np.arange(len(a)), a],
        })

    assigned = ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pandas")

    def per_cluster(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _c, sub in part.groupby("cluster", sort=False):
            order = np.lexsort((sub[id_col].to_numpy(),
                                -sub["centroid_sim"].to_numpy()))
            sub = sub.iloc[order]
            X = _stack_normalized(sub[vec_col])
            ids = sub[id_col].to_numpy()
            n = len(sub)
            S = X @ X.T
            lower = np.tril(np.ones((n, n), dtype=bool), -1)
            hit = (S >= threshold) & lower
            has = hit.any(axis=1)
            first = hit.argmax(axis=1)
            outs.append(pd.DataFrame({
                id_col: ids,
                "cluster": sub["cluster"].to_numpy(),
                "centroid_sim": sub["centroid_sim"].to_numpy(),
                "keep": ~has,
                "near_id": np.where(has, ids[first], -1).astype("int64"),
                "near_cos": np.where(
                    has, S[np.arange(n), first], np.nan),
            }))
        if not outs:
            return pd.DataFrame({
                id_col: pd.Series([], dtype="int64"),
                "cluster": pd.Series([], dtype="int64"),
                "centroid_sim": pd.Series([], dtype="float64"),
                "keep": pd.Series([], dtype=bool),
                "near_id": pd.Series([], dtype="int64"),
                "near_cos": pd.Series([], dtype="float64"),
            })
        return pd.concat(outs, ignore_index=True)

    return grouped_apply(assigned, ["cluster"], per_cluster,
                         num_partitions=num_partitions or min(k, 32))


def frequent_lines(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_doc_freq: int = 30,
    sep: str = "\n",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Lines whose DOCUMENT frequency (distinct docs containing the line)
    is >= ``min_doc_freq``. CCNet-style boilerplate discovery: the shuffle
    carries only (line_hash, partial_count) pairs — document text never
    moves. Returns (line_hash:uint64 as int64, df_docs:int64).

    Scale: the result is bounded by total_lines / min_doc_freq (each
    frequent line needs >= min_doc_freq distinct docs), so it is safe to
    collect and broadcast."""
    from .relational import grouped_agg

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = (
            df[[id_col]]
            .assign(__line=df[text_col].str.split(sep))
            .explode("__line")
        )
        h = pd.util.hash_array(
            ex["__line"].to_numpy(dtype=object)
        ).astype("uint64")
        # distinct (doc, line) inside the batch: a doc never spans two
        # batches, so summing partials == distinct-doc counts globally
        u = pd.DataFrame(
            {id_col: ex[id_col].to_numpy(), "__lh": h}
        ).drop_duplicates()
        g = u.groupby("__lh", sort=False).size()
        return pd.DataFrame(
            {
                "line_hash": g.index.to_numpy().astype("int64"),
                "n": g.to_numpy().astype("int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas")
    agg = grouped_agg(
        partials,
        ["line_hash"],
        {"df_docs": ("n", "sum")},
        merge_partitions=merge_partitions,
    )
    return agg.filter(expr=f"df_docs >= {int(min_doc_freq)}")


def line_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_doc_freq: int = 30,
    sep: str = "\n",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Frequent-line removal (CCNet line-level dedup): drop every line
    that appears in >= ``min_doc_freq`` distinct documents, reassemble
    the remaining lines in order. The reference has no equivalent — its
    dedup stops at whole-file md5 (`/root/reference/legacy/
    posix_crawler.py:71-91`); this is the standard first pass of a
    web-corpus curation pipeline (boilerplate headers/footers/nav).

    Two passes, neither shuffles text:
      1. ``frequent_lines`` — (hash, partial-count) groupby; the
         frequent set (bounded by total_lines/min_doc_freq) is collected
         once and broadcast via ``ray.put``.
      2. map-only clean: explode lines per batch, ``np.isin`` against
         the broadcast hash set (sorted-array binary search), groupby-
         rejoin in original order (pandas groupby preserves row order).

    Returns (doc_id, text_clean, n_lines:int64, n_lines_kept:int64);
    a doc whose every line is frequent keeps text_clean = ''."""
    import ray

    from .relational import resolve_broadcast

    freq = frequent_lines(
        ds, text_col, id_col, min_doc_freq, sep, merge_partitions
    ).to_pandas()
    fl = np.sort(freq["line_hash"].to_numpy().astype("uint64"))
    ref = ray.put(fl)

    def clean(df: pd.DataFrame, *, refs=(ref,)) -> pd.DataFrame:
        bad = resolve_broadcast(refs[0])
        splits = df[text_col].str.split(sep)
        ex = df[[id_col]].assign(__line=splits).explode("__line")
        h = pd.util.hash_array(
            ex["__line"].to_numpy(dtype=object)
        ).astype("uint64")
        kept = ex[~np.isin(h, bad)]
        joined = kept.groupby(id_col, sort=False)["__line"].agg(
            [(("text_clean"), sep.join), (("n_lines_kept"), "size")]
        )
        out = pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(),
                "n_lines": splits.str.len().to_numpy().astype("int64"),
            }
        ).join(joined, on=id_col)
        out["text_clean"] = out["text_clean"].fillna("")
        out["n_lines_kept"] = (
            out["n_lines_kept"].fillna(0).astype("int64")
        )
        return out[[id_col, "text_clean", "n_lines", "n_lines_kept"]]

    return ds.map_batches(clean, batch_format="pandas")


def dup_span_occurrences(
    ds: rd.Dataset,
    k: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
) -> rd.Dataset:
    """Passage-level exact duplicate detection (the span analog of
    training-data substring dedup): emit every occurrence ``(doc_id,
    start_word, n_docs)`` of a word-k-gram that appears in >= 2 DISTINCT
    documents. Downstream curation can blank or down-weight exactly the
    duplicated spans instead of dropping whole near-dup docs.

    Tokenization is single-space split with empties kept (DuckDB
    ``string_split(text, ' ')`` parity); ``start_word`` is 1-based.
    Docs with < k tokens emit nothing.

    Fully vectorized: one flat token array per batch with doc-boundary
    masks, per-token 64-bit hashes (``pd.util.hash_array``), and a
    k-step polynomial rolling combine over the flat array — no per-row
    Python, no k-gram strings materialized. Grouping is by the 64-bit
    window hash rather than the string (the scale path: fixed-width
    keys shuffle instead of text); a collision would conflate two
    distinct k-grams with probability ~n²/2^64 — negligible, and the
    SQL oracle (grouping by the actual string) pins it at test scale.
    Occurrence emission is linear in corpus size — there is no per-group
    pair fanout, so unlike all-pairs kernels this needs no stop-gram cap.
    """
    from .relational import grouped_apply

    P = np.uint64(0x9E3779B97F4A7C15)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            id_col: pd.Series([], dtype="int64"),
            "start_word": pd.Series([], dtype="int64"),
            "__h": pd.Series([], dtype="uint64"),
        })
        if not len(df):
            return empty
        splits = df[text_col].astype(str).str.split(" ")
        counts = splits.str.len().to_numpy().astype(np.int64)
        flat = splits.explode()
        toks = flat.to_numpy(dtype=object)
        if not len(toks):
            return empty
        th = pd.util.hash_array(toks).astype(np.uint64)
        nw = len(th) - k + 1
        if nw <= 0:
            return empty
        # doc index per flat token + 1-based position within its doc
        doc_idx = np.repeat(np.arange(len(df), dtype=np.int64), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        pos = np.arange(len(th), dtype=np.int64) - starts + 1
        h = np.zeros(nw, dtype=np.uint64)
        for j in range(k):
            h = h * P + th[j:j + nw]
        valid = doc_idx[:nw] == doc_idx[k - 1:]
        ids = df[id_col].to_numpy()[doc_idx[:nw][valid]]
        return pd.DataFrame({
            id_col: ids,
            "start_word": pos[:nw][valid],
            "__h": _mix64(h[valid]),
        })

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pandas")

    def keep_dups(part: pd.DataFrame) -> pd.DataFrame:
        if not len(part):
            return pd.DataFrame({
                id_col: pd.Series([], dtype="int64"),
                "start_word": pd.Series([], dtype="int64"),
                "n_docs": pd.Series([], dtype="int64"),
            })
        nd = part.groupby("__h", sort=False)[id_col].transform("nunique")
        out = part[nd >= 2].copy()
        out["n_docs"] = nd[nd >= 2].astype("int64")
        return out[[id_col, "start_word", "n_docs"]]

    return grouped_apply(exploded, ["__h"], keep_dups,
                         num_partitions=num_partitions)


def remove_dup_spans(
    ds: rd.Dataset,
    k: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
) -> rd.Dataset:
    """The removal pass over :func:`dup_span_occurrences`: delete every
    word covered by a cross-doc duplicated k-gram and reassemble the
    text — passage-level dedup that keeps the unique remainder of a
    document instead of dropping it whole.

    The span list (doc_id, start_word — small fixed-width rows) is
    co-partitioned with the documents by id hash; within a partition the
    covered-position set explodes vectorized (repeat + tile), one
    explode/merge/groupby-join rebuilds the texts. Tokenization parity
    with dup_span_occurrences (single-space split, empties kept).
    Returns (doc_id, text_clean, n_words, n_words_kept) for EVERY doc.
    """
    from .relational import grouped_apply

    spans = dup_span_occurrences(ds, k=k, text_col=text_col,
                                 id_col=id_col,
                                 num_partitions=num_partitions)

    def tag_docs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col], "__t": df[text_col].astype(str),
            "__start": np.int64(-1), "__side": "d",
        })

    def tag_spans(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col], "__t": "",
            "__start": df["start_word"].astype("int64"), "__side": "s",
        })

    both = ds.select_columns([id_col, text_col]).map_batches(
        tag_docs, batch_format="pandas"
    ).union(spans.map_batches(tag_spans, batch_format="pandas"))

    def rebuild(part: pd.DataFrame) -> pd.DataFrame:
        d = part[part["__side"] == "d"]
        s = part[part["__side"] == "s"]
        splits = d["__t"].str.split(" ")
        n_words = splits.str.len().to_numpy().astype(np.int64)
        ex = splits.explode()
        # flat (doc, pos, word): positions 1-based within each doc
        doc_rep = np.repeat(np.arange(len(d), dtype=np.int64), n_words)
        pos = (np.arange(len(doc_rep), dtype=np.int64)
               - np.repeat(np.cumsum(n_words) - n_words, n_words) + 1)
        flat = pd.DataFrame({
            "__di": doc_rep, "__pos": pos,
            "__w": ex.to_numpy(dtype=object),
        })
        # covered (doc, pos) pairs from the span starts
        di_of_id = pd.Series(np.arange(len(d), dtype=np.int64),
                             index=d[id_col].to_numpy())
        if len(s):
            s_di = di_of_id.reindex(s[id_col].to_numpy()).to_numpy()
            cov = pd.DataFrame({
                "__di": np.repeat(s_di.astype(np.int64), k),
                "__pos": (np.repeat(s["__start"].to_numpy(), k)
                          + np.tile(np.arange(k, dtype=np.int64), len(s))),
            }).drop_duplicates()
            m = flat.merge(cov, on=["__di", "__pos"], how="left",
                           indicator=True)
            kept = m[m["_merge"] == "left_only"]
        else:
            kept = flat
        joined = kept.groupby("__di", sort=False)["__w"].agg(" ".join)
        out = pd.DataFrame({
            id_col: d[id_col].to_numpy(),
            "text_clean": pd.Series([""] * len(d), dtype=object),
            "n_words": n_words,
        })
        out.loc[joined.index, "text_clean"] = joined.to_numpy()
        nk = kept.groupby("__di", sort=False).size()
        kept_counts = np.zeros(len(d), dtype=np.int64)
        kept_counts[nk.index.to_numpy()] = nk.to_numpy()
        out["n_words_kept"] = kept_counts
        return out[[id_col, "text_clean", "n_words", "n_words_kept"]]

    return grouped_apply(both, [id_col], rebuild,
                         num_partitions=num_partitions)


def _lev_le1(a: str, b: str) -> int | None:
    """Levenshtein distance if ≤ 1, else None — O(len) two-pointer
    (no DP matrix; only the verify step of the deletion-key blocking
    needs it, and only on candidate pairs)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return None
    if la == lb:
        # exactly one substitution?
        diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        return 1 if len(diff) == 1 else None
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1 :] else None


def fuzzy_dedup_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    key_len: int = 24,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Edit-distance-≤1 near-duplicate pairs on a ``key_len``-char
    prefix key via deletion-neighborhood blocking (the SymSpell trick):
    two strings are within Levenshtein 1 iff they share a member of
    their {self} ∪ {one-char-deleted} variant sets, so each doc emits
    ``key_len+1`` (variant-hash, key, id) rows, candidate pairs form
    inside variant-hash partitions, and an O(len) two-pointer check
    verifies dist ≤ 1 — COMPLETE at threshold 1, no LSH false-negative
    risk. Returns distinct (id_a, id_b, dist) with id_a < id_b.

    Scale shape: the exchange moves (hash, 24-char key, id) rows —
    (key_len+1)× the doc count but tiny rows, same discipline as the
    MinHash band shuffle above; candidate verification is local to the
    bucket (keys travel with the rows, no text join); the pair list is
    output-scale and deduped co-partitioned. Exact-dup clusters all
    share the identity variant → their full pair set is emitted, which
    IS the correct output. Keys are character-based; the variant
    generation works on numpy byte matrices, so the key prefix is
    ASCII-normalized first (non-ASCII bytes collapse to '?') — document
    corpora here are ASCII, and the SQL oracle applies the same
    normalization for parity.
    """
    from .relational import grouped_apply

    def gen_variants(df: pd.DataFrame) -> pd.DataFrame:
        keys = (
            df[text_col].astype(str).str.slice(0, key_len)
            .str.encode("ascii", errors="replace")
        )
        ids_out, keys_out, var_out = [], [], []
        # group rows by key LENGTH so each length class is one numpy
        # byte-matrix op (no per-row Python in the variant build)
        lens = keys.str.len()
        for L, idx in pd.Series(range(len(df))).groupby(lens.to_numpy()):
            rows = idx.to_numpy()
            sub = keys.iloc[rows]
            ids = df[id_col].iloc[rows].to_numpy()
            # every key in this group has length exactly L — the join
            # is a dense (n, L) byte matrix, no padding
            full = sub.to_numpy()
            ids_out.append(ids)
            keys_out.append(full)
            var_out.append(full)
            if int(L) == 0:
                continue
            mat = (
                np.frombuffer(b"".join(full), dtype="S1")
                .reshape(len(rows), int(L))
            )
            for i in range(int(L)):
                if int(L) == 1:
                    dele = np.array([b""] * len(rows), dtype=object)
                else:
                    dele = np.ascontiguousarray(
                        np.delete(mat, i, axis=1)
                    ).view(f"S{int(L) - 1}").ravel()
                ids_out.append(ids)
                keys_out.append(full)
                var_out.append(dele)
        if not ids_out:
            return pd.DataFrame({"__vh": pd.Series([], dtype="uint64"),
                                 "key": [], id_col: []})
        variant = np.concatenate(var_out)
        vh = pd.util.hash_array(variant.astype(object))
        return pd.DataFrame({
            "__vh": vh,
            "key": np.concatenate(keys_out).astype(object),
            id_col: np.concatenate(ids_out),
        })

    variants = ds.map_batches(gen_variants, batch_format="pandas")

    def bucket_pairs(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates(subset=["__vh", id_col])
        sizes = part.groupby("__vh", sort=False)[id_col].transform("size")
        hot = part[sizes >= 2]
        out_a, out_b, out_d = [], [], []
        for _vh, g in hot.groupby("__vh", sort=False):
            g = g.drop_duplicates(subset=id_col).sort_values(id_col)
            ids = g[id_col].to_numpy()
            ks = g["key"].to_numpy()
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = _lev_le1(
                        ks[i].decode("ascii"), ks[j].decode("ascii")
                    )
                    if d is not None:
                        out_a.append(ids[i])
                        out_b.append(ids[j])
                        out_d.append(d)
        return pd.DataFrame({
            "id_a": np.asarray(out_a, dtype="int64"),
            "id_b": np.asarray(out_b, dtype="int64"),
            "dist": np.asarray(out_d, dtype="int64"),
        })

    pairs = grouped_apply(variants, ["__vh"], bucket_pairs,
                          num_partitions=num_partitions)

    def dedup_pairs(part: pd.DataFrame) -> pd.DataFrame:
        return part.drop_duplicates(subset=["id_a", "id_b"])

    return grouped_apply(pairs, ["id_a", "id_b"], dedup_pairs,
                         num_partitions=num_partitions)


def minhash_index_write(
    ds: rd.Dataset,
    index_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    bands: int = 32,
    num_shards: int = 16,
    append: bool = False,
    tag: str | None = None,
) -> dict:
    """Persist the LSH band index as a hive-partitioned parquet
    artifact — the reusable state that makes daily-increment dedup
    O(delta), not O(corpus): band the documents once, shard rows by
    ``band_hash % num_shards``, write one directory per shard (the
    partition an incremental run prunes at the PATH level — only
    shards the delta actually touches are ever read). ``append=True``
    adds new files into the existing shard directories, the
    index-maintenance step after each incremental run. Banding
    parameters are recorded in ``index_meta.json`` and must match at
    query time — a mismatched signature scheme would silently produce
    no collisions.

    Appends are crash-safe: the delta's band rows land in a temp
    subdirectory first, then move into the shard dirs under an
    ``append<k>-`` filename prefix, and a per-append manifest
    (``appends/<k>.json``, written LAST via atomic rename) records the
    moved files. A crash anywhere before the manifest leaves either a
    temp dir or prefixed-but-unmanifested files — the next append (or
    rewrite) rolls both back before writing, so a retried append never
    duplicates band rows and candidate-generation cost never inflates.

    ``tag`` makes COMPLETED appends idempotent too: it is recorded in
    the append manifest, and an append whose tag already has a manifest
    is a no-op — the export lifecycle tags each append with its run
    directory so a re-run after a post-append crash cannot double-index
    the same crawl."""
    import glob
    import json
    import os
    import re
    import shutil

    meta = {"num_perm": num_perm, "bands": bands,
            "num_shards": num_shards, "id_col": id_col}
    meta_path = os.path.join(index_dir, "index_meta.json")
    if append:
        with open(meta_path) as f:
            old = json.load(f)
        if {k: old[k] for k in meta} != meta:
            raise ValueError(
                f"index params {old} != requested {meta}")
    else:
        shutil.rmtree(index_dir, ignore_errors=True)
        os.makedirs(index_dir, exist_ok=True)

    # roll back debris from any append that crashed mid-flight: temp
    # dirs (crash before/while writing) and prefixed shard files whose
    # append id has no manifest (crash between the moves and the
    # manifest rename)
    app_dir = os.path.join(index_dir, "appends")
    manifests = [f for f in
                 (os.listdir(app_dir) if os.path.isdir(app_dir) else [])
                 if f.endswith(".json")]
    done = {int(os.path.splitext(f)[0]) for f in manifests}
    if append and tag is not None:
        for f in manifests:
            with open(os.path.join(app_dir, f)) as fh:
                if json.load(fh).get("tag") == tag:
                    return meta  # this delta is already indexed
    for t in glob.glob(os.path.join(index_dir, ".tmp_append*")):
        shutil.rmtree(t, ignore_errors=True)
    for sd in glob.glob(os.path.join(index_dir, "shard=*")):
        for f in os.listdir(sd):
            m = re.match(r"append(\d+)-", f)
            if m and int(m.group(1)) not in done:
                os.remove(os.path.join(sd, f))

    bands_ds = ds.map_batches(
        _MinhashBands(text_col, id_col, num_perm, bands),
        batch_format="pandas",
    )

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["shard"] = (df["band_hash"]
                       % np.uint64(num_shards)).astype("int64")
        return df

    sharded = bands_ds.map_batches(add_shard, batch_format="pandas")
    if not append:
        sharded.write_parquet(index_dir, partition_cols=["shard"])
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
        return meta

    k = max(done, default=-1) + 1
    tmp = os.path.join(index_dir, f".tmp_append{k}")
    sharded.write_parquet(tmp, partition_cols=["shard"])
    moved = []
    for sd in sorted(glob.glob(os.path.join(tmp, "shard=*"))):
        dst_dir = os.path.join(index_dir, os.path.basename(sd))
        os.makedirs(dst_dir, exist_ok=True)
        for f in sorted(os.listdir(sd)):
            dst = f"append{k}-{f}"
            os.replace(os.path.join(sd, f), os.path.join(dst_dir, dst))
            moved.append(os.path.join(os.path.basename(sd), dst))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(app_dir, exist_ok=True)
    man_path = os.path.join(app_dir, f"{k}.json")
    with open(man_path + ".tmp", "w") as f:
        json.dump({"append_id": k, "tag": tag, "files": moved}, f)
    os.replace(man_path + ".tmp", man_path)
    return meta


def minhash_dedup_incremental(
    new_ds: rd.Dataset,
    index_dir: str,
    base_docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.7,
    num_partitions: int = 32,
) -> rd.Dataset:
    """Near-duplicate pairs TOUCHING A DELTA against a persisted LSH
    index (`minhash_index_write`) — the incremental-ingest dedup path:
    band only the new documents, read only the index shards whose
    band-hash range the delta touches (path-level pruning — at 100 TB
    the index is corpus-scale but a day's delta touches a bounded
    shard set and, within each shard, only colliding band keys), emit
    candidate pairs where AT LEAST ONE side is new (base×base pairs
    were the previous runs' output), verify true Jaccard with the
    streamed text join. Equivalence contract (pytest-pinned): result
    == full-corpus `minhash_lsh_pairs` restricted to pairs touching
    the delta, byte-identical. Document ids must be unique across
    base and delta."""
    import glob
    import json
    import os

    from .relational import grouped_apply

    with open(os.path.join(index_dir, "index_meta.json")) as f:
        meta = json.load(f)
    num_shards = int(meta["num_shards"])

    nb = new_ds.map_batches(
        _MinhashBands(text_col, id_col,
                      int(meta["num_perm"]), int(meta["bands"])),
        batch_format="pandas",
    ).materialize()

    shard_rows = nb.map_batches(
        lambda df: pd.DataFrame({
            "shard": np.unique(df["band_hash"]
                               % np.uint64(num_shards)).astype("int64")}),
        batch_format="pandas",
    ).to_pandas()
    shards = sorted(set(shard_rows["shard"]))
    files = [f for s in shards
             for f in glob.glob(
                 os.path.join(index_dir, f"shard={s}", "*.parquet"))]

    def tag(origin: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return df.assign(__origin=np.int8(origin))
        return fn

    both = nb.map_batches(tag(1), batch_format="pandas")
    if files:
        idx = rd.read_parquet(
            files, columns=["band_id", "band_hash", id_col])
        both = both.union(idx.map_batches(tag(0), batch_format="pandas"))

    def partition_pairs(part: pd.DataFrame) -> pd.DataFrame:
        sizes = part.groupby(["band_id", "band_hash"], sort=False)[
            id_col].transform("nunique")
        has_new = part.groupby(["band_id", "band_hash"], sort=False)[
            "__origin"].transform("max")
        hot = part[(sizes >= 2) & (has_new == 1)]
        out_a, out_b = [], []
        for _key, g in hot.groupby(["band_id", "band_hash"], sort=False):
            # a doc can appear BOTH as a fresh delta band row and as an
            # index row (after index append) — the origin must be the
            # max over its rows, not whichever row drop_duplicates
            # happens to keep (block order is not a contract)
            origins = g.groupby(id_col, sort=False)["__origin"].max()
            ids = np.sort(origins.index.to_numpy())
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    if origins[ids[i]] or origins[ids[j]]:
                        out_a.append(ids[i])
                        out_b.append(ids[j])
        return pd.DataFrame({"id_a": out_a, "id_b": out_b})

    cand = grouped_apply(both, ["band_id", "band_hash"],
                         partition_pairs,
                         num_partitions=num_partitions)
    docs = base_docs.select_columns([id_col, text_col]).union(
        new_ds.select_columns([id_col, text_col]))
    return verify_pairs_with_texts(
        cand, docs, text_col=text_col, id_col=id_col,
        threshold=threshold)


def leakage_safe_split(
    docs: rd.Dataset,
    pairs: rd.Dataset,
    id_col: str = "doc_id",
    fractions: tuple[int, int] = (8, 9),
    num_buckets: int = 16,
) -> rd.Dataset:
    """Near-dup-aware train/val/test assignment — the decontaminated
    split a training-data export needs: documents connected by a
    near-dup pair land in the SAME split, so validation never scores
    on a paraphrase of a training row (the leakage the plain
    doc_id-hash split permits).

    Composition: connected components over ``pairs`` (min-label
    propagation) give each near-dup family its cluster id; every doc's
    group key is its cluster id or, for singletons, its own id (LEFT
    bucket-join — the cluster table scales with the corpus and never
    broadcasts); the split is the same deterministic Knuth-hash bucket
    rule as the plain split (same-key ⇒ same split at any parallelism,
    on any rerun). Emits (id, split)."""
    from .relational import bucketed_hash_join

    cl = connected_components(pairs)
    cl = cl.map_batches(
        lambda d: d.rename(columns={"node": id_col,
                                    "label": "__cluster"}),
        batch_format="pandas")
    j = bucketed_hash_join(docs.select_columns([id_col]), cl,
                           on=id_col, how="left",
                           num_buckets=num_buckets)
    lo, hi = fractions

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        gk = df["__cluster"].to_numpy(dtype="float64")
        ids = df[id_col].to_numpy(dtype="int64")
        gk = np.where(np.isnan(gk), ids, gk).astype(np.uint64)
        h = ((gk % np.uint64(4294967296)) * np.uint64(2654435761)) \
            % np.uint64(4294967296) % np.uint64(10)
        split = np.where(h < lo, "train",
                         np.where(h < hi, "val", "test"))
        return pd.DataFrame({id_col: ids, "split": split.astype(object)})

    return j.map_batches(assign, batch_format="pandas")
