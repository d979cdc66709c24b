"""Cuckoo filter (numpy) with bloom fallback — the URL-seen sketch.

The reference only ever intended dedup (`dup_check` stubs,
`/root/reference/crawlers/local_posix.py:156-158`, md5 hashing
`legacy/posix_crawler.py:71-91`); the north rule makes an approximate
membership filter over canonical URL hashes a first-class component
(cf. PAPERS.md learned-cuckoo-filter entry — pattern only).

Design (standard cuckoo filter, Fan et al. 2014, public):
  * buckets of 4 × uint16 fingerprints; fingerprint 0 reserved = empty;
  * two candidate buckets: i1 = h mod B, i2 = i1 xor (fphash mod B);
  * insert with eviction random-walk bounded to ``MAX_KICKS``; the kick
    victim choice is derived deterministically from the item hash —
    no RNG state → replays are bit-identical;
  * on insertion failure the item goes to a bloom fallback (k=7 bit
    array) so the filter NEVER false-negatives (an FN would re-crawl).

False positives would silently drop URLs (SURVEY.md §7.5), so the shard
actor that wraps this keeps an exact backing set to verify positives; the
filter's job is to answer "definitely new" for the overwhelmingly common
miss case without touching the exact structure. At 10^10-URL scale the
exact backing is a per-shard on-disk sorted run consulted only for the
rare filter-positive; here it is ``SeenShard``'s in-memory sorted uint64
array (probed with ``np.searchsorted``) plus an unsorted append buffer
merged into it in batches (``state/seen.py``).

Sizing: ``capacity`` is rounded up to a power-of-two bucket count at
<=95% load, so the table holds 1.05-2.1x ``capacity`` slots. The
default ``capacity=1<<20`` gives 2^19 buckets x 4 slots (~2.1M
slots): a 4 MiB fingerprint table plus a 2 MiB bloom fallback
(``capacity // 4`` uint64 words).

Pure numpy, no Ray — unit-testable directly (tests/test_cuckoo.py).
"""

from __future__ import annotations

import numpy as np

MAX_KICKS = 250
_FP_MASK = np.uint64(0xFFFF)


class CuckooFilter:
    def __init__(self, capacity: int):
        # 4-slot buckets, ~95% load max; round buckets to power of two
        nb = max(8, int(2 ** np.ceil(np.log2(max(1, capacity) / 4 / 0.95))))
        self.num_buckets = nb
        self._mask = np.uint64(nb - 1)
        self.table = np.zeros((nb, 4), dtype=np.uint16)
        self.bloom = np.zeros(max(64, capacity // 4), dtype=np.uint64)  # bits
        self._bloom_nbits = np.uint64(self.bloom.size * 64)
        self.n_items = 0
        self.n_bloom = 0

    # -- fingerprints / buckets ------------------------------------------
    def _fp(self, h: np.ndarray) -> np.ndarray:
        fp = ((h >> np.uint64(48)) & _FP_MASK).astype(np.uint16)
        return np.where(fp == 0, np.uint16(1), fp)

    def _i1(self, h: np.ndarray) -> np.ndarray:
        return h & self._mask

    def _i2(self, i1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # public cuckoo-filter trick: i2 = i1 xor hash(fp)
        fph = fp.astype(np.uint64) * np.uint64(0x5BD1E995)
        return (i1 ^ fph) & self._mask

    # -- bloom fallback ---------------------------------------------------
    def _bloom_positions(self, h: int) -> np.ndarray:
        x = int(h)
        nbits = int(self._bloom_nbits)
        out = np.empty(7, dtype=np.uint64)
        for k in range(7):
            x = (x * 0x9E3779B97F4A7C15 + k + 1) & 0xFFFFFFFFFFFFFFFF
            out[k] = x % nbits
        return out

    def _bloom_add(self, h: int) -> None:
        pos = self._bloom_positions(h)
        np.bitwise_or.at(
            self.bloom, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
        self.n_bloom += 1

    def _bloom_has_many(self, hashes: np.ndarray) -> np.ndarray:
        if self.n_bloom == 0:
            return np.zeros(len(hashes), dtype=bool)
        res = np.ones(len(hashes), dtype=bool)
        x = hashes.astype(np.uint64).copy()
        for k in range(7):
            x = x * np.uint64(0x9E3779B97F4A7C15) + np.uint64(k + 1)
            pos = x % self._bloom_nbits
            word = self.bloom[(pos >> np.uint64(6)).astype(np.int64)]
            res &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
        return res

    # -- queries ----------------------------------------------------------
    def maybe_contains_many(self, hashes: np.ndarray) -> np.ndarray:
        """Vectorized probe: False ⇒ definitely not present.

        Includes the bloom fallback of eviction orphans: an orphan is
        recorded as its ``(bucket, fingerprint)`` encoding, and the probe
        checks both candidate-bucket encodings — so an item whose
        fingerprint was displaced into the bloom still probes positive
        (no false negatives ever).
        """
        h = hashes.astype(np.uint64)
        fp = self._fp(h)
        i1 = self._i1(h)
        i2 = self._i2(i1, fp)
        fpc = fp[:, None]
        hit = (self.table[i1.astype(np.int64)] == fpc).any(axis=1)
        hit |= (self.table[i2.astype(np.int64)] == fpc).any(axis=1)
        if self.n_bloom:
            for ib in (i1, i2):
                enc = (ib.astype(np.int64) << 16) | fp.astype(np.int64)
                hit |= self._bloom_has_many(enc.astype(np.uint64))
        return hit

    # -- inserts ----------------------------------------------------------
    def insert(self, h: int) -> None:
        """Scalar-fast insert: pure-int arithmetic + one memoryview write.

        The original numpy-scalar implementation cost ~25 µs/insert (six
        array allocations per item); at web-crawl discovery rates the
        seen shards serialize on inserts, so this path is deliberately
        plain Python ints (~2-3 µs). Probes stay fully vectorized.
        """
        table = self.table
        mask = int(self._mask)
        hi = int(h) & 0xFFFFFFFFFFFFFFFF
        fp = (hi >> 48) & 0xFFFF
        if fp == 0:
            fp = 1
        i1 = hi & mask
        i2 = (i1 ^ ((fp * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF)) & mask
        for b in (i1, i2):
            row = table[b]
            for s in range(4):
                if row[s] == 0:
                    row[s] = fp
                    self.n_items += 1
                    return
        # eviction random walk, victim slot derived from item hash (no RNG)
        cur_b, cur_fp = i1, fp
        state = hi
        for _ in range(MAX_KICKS):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            slot = state & 3
            victim = int(table[cur_b, slot])
            table[cur_b, slot] = cur_fp
            cur_fp = victim
            cur_b = (cur_b ^ ((cur_fp * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF)) & mask
            row = table[cur_b]
            for s in range(4):
                if row[s] == 0:
                    row[s] = cur_fp
                    self.n_items += 1
                    return
        # overflow → bloom fallback keeps the displaced fingerprint's item;
        # we cannot recover the evicted item's hash from its fingerprint, so
        # the FINAL displaced fingerprint is re-materialized in the bloom via
        # its (bucket, fp) pair encoding — membership stays FN-free because
        # probes check (bucket, fp) presence through the same encoding.
        self._bloom_add(self._encode_orphan(cur_b, cur_fp))
        self.n_items += 1

    def insert_many(self, hashes: np.ndarray) -> None:
        """Bulk insert: vectorized first-slot placement for items whose
        primary bucket has room and no within-batch bucket collision (the
        overwhelmingly common case), scalar fallback for the rest."""
        h = hashes.astype(np.uint64)
        if h.size == 0:
            return
        fp = self._fp(h)
        i1 = self._i1(h).astype(np.int64)
        # unique primary buckets only (collisions take the scalar path)
        uniq, first_idx, counts = np.unique(
            i1, return_index=True, return_counts=True
        )
        solo = counts == 1
        cand_rows = uniq[solo]
        cand_idx = first_idx[solo]
        rows = self.table[cand_rows]
        empty_slot = np.argmax(rows == 0, axis=1)
        has_empty = rows[np.arange(len(rows)), empty_slot] == 0
        place_rows = cand_rows[has_empty]
        place_slots = empty_slot[has_empty]
        self.table[place_rows, place_slots] = fp[cand_idx[has_empty]]
        self.n_items += int(has_empty.sum())
        done = np.zeros(len(h), dtype=bool)
        done[cand_idx[has_empty]] = True
        for i in np.nonzero(~done)[0]:
            self.insert(int(h[i]))

    @staticmethod
    def _encode_orphan(bucket: int, fp: int) -> int:
        return (bucket << 16) | fp
