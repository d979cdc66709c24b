"""Dedup family on crafted corpora with planted duplicates."""

import numpy as np
import pandas as pd
import pytest

from crawler_service_ray.functions import dedup

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the rain falls softly on the old roof "
    "of the quiet house near the river bend where children play"
)


def _docs():
    rows = [
        {"doc_id": 1, "text": BASE},
        {"doc_id": 2, "text": BASE},  # exact dup of 1
        {"doc_id": 3, "text": BASE.replace("lazy", "sleepy")},  # near dup
        {"doc_id": 4, "text": "completely different content about spark "
                              "query engines and distributed shuffles with "
                              "partitioned joins and sorted aggregates over "
                              "columnar arrow batches in the object store"},
        {"doc_id": 5, "text": "unrelated short text"},
    ]
    return pd.DataFrame(rows)


@pytest.fixture
def docs_ds(ray_session):
    import ray.data as rd

    return rd.from_pandas(_docs())


def test_exact_dedup(docs_ds):
    out = dedup.exact_dedup(docs_ds).to_pandas()
    assert len(out) == 4  # 5 docs, one exact dup pair
    row = out[out["doc_id"] == 1]
    assert row["dup_count"].iloc[0] == 2


def test_minhash_lsh_finds_planted_near_dups(docs_ds):
    pairs = dedup.minhash_lsh_pairs(docs_ds, threshold=0.5).to_pandas()
    got = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    assert (1, 2) in got  # exact dup
    assert (1, 3) in got and (2, 3) in got  # near dup
    assert not any(4 in p or 5 in p for p in got)
    exact = pairs[(pairs.id_a == 1) & (pairs.id_b == 2)]["jaccard"].iloc[0]
    assert exact == 1.0


def test_jaccard_kernel():
    assert dedup.jaccard(BASE, BASE) == 1.0
    assert dedup.jaccard(BASE, "xyz") < 0.05
    j = dedup.jaccard(BASE, BASE.replace("lazy", "sleepy"))
    assert 0.5 < j < 1.0


def test_simhash_finds_exact_and_near(docs_ds):
    pairs = dedup.simhash_dedup(docs_ds, max_hamming=10).to_pandas()
    got = {tuple(p): h for *p, h in
           pairs[["id_a", "id_b", "hamming"]].to_numpy()}
    assert got.get((1, 2)) == 0  # identical fingerprints
    assert (1, 3) in got  # one-word change → small hamming
    assert (1, 4) not in got and (1, 5) not in got


def test_simhash_deterministic():
    s1 = dedup.simhash_batch(pd.Series([BASE, "abc def"]))
    s2 = dedup.simhash_batch(pd.Series([BASE, "abc def"]))
    assert (s1 == s2).all()


def test_embedding_near_dup(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    base = rng.normal(size=(6, 16)).astype(np.float32)
    base[1] = base[0] + 0.001  # planted near-dup pair (0,1)
    df = pd.DataFrame(
        {"vec_id": np.arange(6, dtype="int64"), "embedding": list(base)}
    )
    out = dedup.embedding_near_dup(
        rd.from_pandas(df), threshold=0.99
    ).to_pandas()
    pairs = set(map(tuple, out[["id_a", "id_b"]].to_numpy()))
    assert pairs == {(0, 1)}
    assert out["cosine"].iloc[0] > 0.999


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01"])
def test_minhash_golden_pairs(ray_session, sf):
    """The streamed text-join verification (round 2) must produce
    byte-identical pairs to the round-1 driver-broadcast path — pinned
    by goldens captured before the refactor."""
    import json
    import os

    import ray.data as rd

    golden_path = os.path.join(
        os.path.dirname(__file__), "data", f"golden_dedup_minhash_{sf}.json"
    )
    with open(golden_path) as f:
        golden = pd.DataFrame(json.load(f))
    ds = rd.read_parquet(f"/root/testdata/{sf}/documents.parquet",
                         columns=["doc_id", "text"])
    got = dedup.minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    got = got.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    got["jaccard"] = got["jaccard"].round(9)
    pd.testing.assert_frame_equal(got, golden[got.columns])


def test_popcount64_matches_bin():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2**63, size=1000, dtype=np.uint64)
    x[:3] = [0, 1, np.iinfo(np.uint64).max]
    expect = np.array([bin(int(v)).count("1") for v in x], dtype=np.int64)
    assert (dedup.popcount64(x) == expect).all()


def _py_ngram_jaccard(ta: str, tb: str, k: int = 5) -> float:
    def sh(t):
        ws = t.split(" ")
        if len(ws) < k:
            return {" ".join(ws)}
        return {" ".join(ws[i:i + k]) for i in range(len(ws) - k + 1)}

    sa, sb = sh(ta), sh(tb)
    return len(sa & sb) / len(sa | sb)


def test_ngram_jaccard_exact_all_pairs(docs_ds):
    out = dedup.ngram_jaccard_pairs(docs_ds, threshold=0.0).to_pandas()
    got = {(a, b): j for a, b, j in
           out[["id_a", "id_b", "jaccard"]].to_numpy()}
    docs = _docs().set_index("doc_id")["text"]
    # every sharing pair present with the exact reference jaccard
    assert got[(1, 2)] == 1.0
    for (a, b), j in got.items():
        assert j == pytest.approx(_py_ngram_jaccard(docs[a], docs[b]))
    # non-sharing pairs absent (docs 4,5 share no 5-gram with 1-3)
    assert not any(4 in p or 5 in p for p in got if p != (4, 5))


def test_embedding_near_dup_block_pairs_match_bruteforce(ray_session):
    """Block-pair exact path finds EVERY pair a full n² matmul finds,
    each exactly once, at any block count."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    M = rng.normal(size=(80, 16)).astype(np.float32)
    for i in range(0, 20, 2):  # plant 10 near-dup pairs
        M[i + 1] = M[i] + rng.normal(scale=0.01, size=16).astype(np.float32)
    df = pd.DataFrame(
        {"vec_id": np.arange(80, dtype="int64"), "embedding": list(M)}
    )
    Mn = M.astype(np.float64)
    Mn /= np.linalg.norm(Mn, axis=1, keepdims=True)
    sims = Mn @ Mn.T
    ai, bi = np.nonzero(np.triu(sims >= 0.9, k=1))
    expect = set(zip(ai.tolist(), bi.tolist()))
    for nb in (1, 3, 8):
        out = dedup.embedding_near_dup(
            rd.from_pandas(df), threshold=0.9, num_blocks=nb
        ).to_pandas()
        got = list(map(tuple, out[["id_a", "id_b"]].to_numpy()))
        assert len(got) == len(set(got))  # no pair emitted twice
        assert set(got) == expect


def test_embedding_near_dup_ivf_recall(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(13)
    M = rng.normal(size=(200, 16)).astype(np.float32)
    for i in range(0, 40, 2):
        M[i + 1] = M[i] + rng.normal(scale=0.01, size=16).astype(np.float32)
    df = pd.DataFrame(
        {"vec_id": np.arange(200, dtype="int64"), "embedding": list(M)}
    )
    ds = rd.from_pandas(df)
    exact = dedup.embedding_near_dup(ds, threshold=0.9,
                                     num_blocks=4).to_pandas()
    approx = dedup.embedding_near_dup_ivf(
        ds, threshold=0.9, num_cells=8, assign_top=2
    ).to_pandas()
    exact_pairs = set(map(tuple, exact[["id_a", "id_b"]].to_numpy()))
    approx_pairs = set(map(tuple, approx[["id_a", "id_b"]].to_numpy()))
    assert approx_pairs <= exact_pairs  # no false positives
    assert len(approx_pairs) >= 0.9 * len(exact_pairs)  # recall bound
    dup = approx[["id_a", "id_b"]].duplicated().sum()
    assert dup == 0  # multi-cell pairs deduped


def test_connected_components(ray_session):
    """Min-label propagation: a 4-node path (needs >1 iteration for the
    min to reach the far end) plus a separate pair and a triangle."""
    import ray.data as rd

    pairs = pd.DataFrame(
        {
            "id_a": ["a", "b", "c", "x", "p", "q", "p"],
            "id_b": ["b", "c", "d", "y", "q", "r", "r"],
        }
    )
    expected = {
        "a": "a", "b": "a", "c": "a", "d": "a",
        "x": "x", "y": "x",
        "p": "p", "q": "p", "r": "p",
    }
    # both the size-gated local union-find and the partitioned
    # min-label exchange must produce the identical labeling
    for thr in (2_000_000, 0):
        out = dedup.connected_components(
            rd.from_pandas(pairs), local_threshold=thr).to_pandas()
        got = dict(zip(out["node"], out["label"]))
        assert got == expected
    # no pairs: both paths return no rows with a (node, label) header
    # typed like the input's (string) ids
    none = pd.DataFrame({"id_a": pd.Series(dtype=object),
                         "id_b": pd.Series(dtype=object)})
    for thr in (2_000_000, 0):
        out = dedup.connected_components(
            rd.from_pandas(none), local_threshold=thr)
        assert out.count() == 0
        sch = out.schema()
        assert sch is not None, thr
        assert list(sch.names) == ["node", "label"]
        assert list(sch.base_schema.types) == [object, object]


def test_minhash_signature_deterministic():
    a, b = dedup._minhash_params(32)
    s1 = dedup.minhash_signature(BASE, a, b)
    s2 = dedup.minhash_signature(BASE, a, b)
    assert (s1 == s2).all()
    assert s1.dtype == np.uint64


def test_connected_components_raises_on_nonconvergence(ray_session):
    import pytest as _pytest
    import ray.data as rd

    # a 6-node path needs >2 rounds for the min to reach the far end
    chain = pd.DataFrame(
        {"id_a": ["a", "b", "c", "d", "e"],
         "id_b": ["b", "c", "d", "e", "f"]}
    )
    with _pytest.raises(RuntimeError, match="did not converge"):
        dedup.connected_components(rd.from_pandas(chain), max_iters=1,
                                   local_threshold=0)


def test_ngram_stop_shingle_cap_bounds_fanout(ray_session):
    """VERDICT r2 #1: a boilerplate shingle shared by 10^3 docs must NOT
    explode into ~500k pair rows when the document-frequency cutoff is
    set; with the cutoff disabled the same corpus does produce the full
    quadratic pair set (checked on a small slice)."""
    import ray.data as rd

    n = 1000
    boiler = "common boiler plate words here"
    docs = pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        # one shared 5-gram; every other 5-gram is unique per doc
        "text": [f"u{i}a u{i}b u{i}c u{i}d {boiler} v{i}a v{i}b v{i}c v{i}d"
                 for i in range(n)],
    })
    ds = rd.from_pandas(docs)
    capped = dedup.ngram_jaccard_pairs(
        ds, threshold=0.0, max_shingle_df=50
    ).to_pandas()
    # the only cross-doc shingle is dropped -> no pairs at all
    assert len(capped) == 0

    small = rd.from_pandas(docs.head(40))
    uncapped = dedup.ngram_jaccard_pairs(
        small, threshold=0.0, max_shingle_df=None
    ).to_pandas()
    assert len(uncapped) == 40 * 39 // 2  # full quadratic set


def test_ngram_cap_keeps_cold_shingles_exact(ray_session):
    """Pairs riding on below-cutoff shingles keep their exact
    (lower-bound) jaccard when a hot shingle is dropped."""
    import ray.data as rd

    boiler = "common boiler plate words here"
    near_a = f"x1 x2 x3 x4 x5 x6 {boiler}"
    near_b = f"x1 x2 x3 x4 x5 x7 {boiler}"
    docs = [{"doc_id": 0, "text": near_a}, {"doc_id": 1, "text": near_b}]
    docs += [{"doc_id": 2 + i,
              "text": f"w{i}a w{i}b w{i}c w{i}d {boiler}"}
             for i in range(20)]
    ds = rd.from_pandas(pd.DataFrame(docs))
    out = dedup.ngram_jaccard_pairs(
        ds, threshold=0.05, max_shingle_df=10
    ).to_pandas()
    got = {(a, b): j for a, b, j in
           out[["id_a", "id_b", "jaccard"]].to_numpy()}
    assert set(got) == {(0, 1)}
    # intersection loses the boilerplate 5-grams, denominators keep them:
    # exact sets share |∩|=2 cold shingles ("x1..x5","x2..x6"/7 variants)
    full = _py_ngram_jaccard(near_a, near_b)
    assert got[(0, 1)] <= full  # lower bound, as documented
    assert got[(0, 1)] > 0


def test_oph_signatures_estimate_jaccard():
    """OPH + rotation densification must (a) be deterministic, (b) track
    true shingle Jaccard, (c) give wordless docs all-zero signatures
    (kernel parity), (d) match python-split tokenization via Arrow."""
    rng = np.random.default_rng(5)
    vocab = np.array([f"w{i}" for i in range(2000)], dtype=object)
    base_words = list(rng.choice(vocab, size=200))
    variants = [" ".join(base_words)]
    for frac in (0.05, 0.3):
        w = base_words.copy()
        for i in rng.choice(len(w), int(len(w) * frac), replace=False):
            w[i] = "zz" + w[i]
        variants.append(" ".join(w))
    sig = dedup.minhash_batch_signatures_oph(pd.Series(variants))
    assert (dedup.minhash_batch_signatures_oph(pd.Series(variants))
            == sig).all()
    for i in (1, 2):
        est = (sig[:, 0] == sig[:, i]).mean()
        sa = set(dedup._shingle_hashes(variants[0]))
        sb = set(dedup._shingle_hashes(variants[i]))
        true = len(sa & sb) / len(sa | sb)
        assert abs(est - true) < 0.15, (i, est, true)
    e = dedup.minhash_batch_signatures_oph(
        pd.Series(["", "   ", "one two three four five six"])
    )
    assert (e[:, 0] == 0).all() and (e[:, 1] == 0).all()
    assert (e[:, 2] != 0).any()
    # messy whitespace tokenizes like python str.split()
    messy = dedup.minhash_batch_signatures_oph(
        pd.Series(["  a b   c d e f  ", "a b c d e f"])
    )
    assert (messy[:, 0] == messy[:, 1]).all()


def test_line_dedup_removes_frequent_lines(ray_session):
    """Frequent-line removal: a boilerplate line present in 60/100 docs
    is dropped from every doc; unique body lines survive in order; a doc
    that is ALL boilerplate collapses to ''. Oracle: plain python."""
    import ray.data as rd

    bl = "copyright footer line"
    rows = []
    for i in range(100):
        body = f"unique body {i}\nsecond line {i}"
        if i < 60:
            rows.append({"doc_id": i, "text": f"{bl}\n{body}"})
        elif i == 99:
            rows.append({"doc_id": i, "text": bl})  # all-boilerplate
        else:
            rows.append({"doc_id": i, "text": body})
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = (
        dedup.line_dedup(ds, min_doc_freq=50)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(out) == 100
    for _, r in out.iterrows():
        i = r["doc_id"]
        if i == 99:
            assert r["text_clean"] == ""
            assert r["n_lines"] == 1 and r["n_lines_kept"] == 0
        else:
            assert r["text_clean"] == f"unique body {i}\nsecond line {i}"
            assert bl not in r["text_clean"]
    assert out.loc[0, "n_lines"] == 3 and out.loc[0, "n_lines_kept"] == 2


def test_frequent_lines_bounded_result(ray_session):
    """The frequent set is bounded by total_lines/min_doc_freq: with
    1000 docs x 2 lines all distinct, NO line is frequent."""
    import ray.data as rd

    df = pd.DataFrame(
        {
            "doc_id": np.arange(1000),
            "text": [f"a{i}\nb{i}" for i in range(1000)],
        }
    )
    out = dedup.frequent_lines(
        rd.from_pandas(df), min_doc_freq=2
    ).to_pandas()
    assert len(out) == 0


def test_fuzzy_dedup_pairs_planted(ray_session):
    """Deletion-neighborhood blocking is complete at distance 1:
    substitution, insertion, deletion all pair; distance 2 does not."""
    import ray.data as rd

    from crawler_service_ray.functions.dedup import fuzzy_dedup_pairs

    base = "the quick brown fox jump"  # 24 chars
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6, 7],
        "text": [
            base,                          # identity
            base,                          # exact dup of 1 (dist 0)
            "the quick brown fox jumX",    # substitution (dist 1 vs 1/2)
            "the quick brown fox jum",     # deletion (dist 1 vs 1/2)
            "Xthe quick brown fox jum",    # insertion at front => prefix
            "the XXick brown fox jump",    # dist 2 vs base — no pair
            "completely different txt",    # unrelated
        ],
    })
    out = (
        fuzzy_dedup_pairs(rd.from_pandas(docs), key_len=24,
                          num_partitions=4)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    got = set(zip(out["id_a"], out["id_b"], out["dist"]))
    assert (1, 2, 0) in got
    assert (1, 3, 1) in got and (2, 3, 1) in got
    assert (1, 4, 1) in got and (2, 4, 1) in got
    # 3 vs 4: "...jumX" vs "...jum" = one deletion
    assert (3, 4, 1) in got
    # doc 5's 24-char key is base shifted right one = dist 2 region is
    # allowed to pair only where true dist <= 1
    assert all(d <= 1 for (_a, _b, d) in got)
    assert not any(6 in (a, b) for (a, b, _d) in got)
    assert not any(7 in (a, b) for (a, b, _d) in got)


def test_fuzzy_dedup_matches_quadratic(ray_session):
    """Blocked pairs == brute-force levenshtein<=1 pairs on random keys."""
    import ray.data as rd

    from crawler_service_ray.functions.dedup import (_lev_le1,
                                                     fuzzy_dedup_pairs)

    rng = np.random.default_rng(11)
    alpha = list("abcd")
    base_keys = ["".join(rng.choice(alpha, 10)) for _ in range(40)]
    texts = []
    for k in base_keys:
        texts.append(k)
        if rng.random() < 0.5:  # plant a 1-edit neighbor
            i = int(rng.integers(0, len(k)))
            texts.append(k[:i] + "z" + k[i + 1:])
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = fuzzy_dedup_pairs(rd.from_pandas(docs), key_len=24,
                            num_partitions=4).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if _lev_le1(texts[i][:24], texts[j][:24]) is not None:
                want.add((i, j))
    assert got == want


def test_minhash_incremental_matches_full_run(ray_session, tmp_path):
    import ray.data as rd

    from crawler_service_ray.functions.dedup import (
        minhash_dedup_incremental,
        minhash_index_write,
        minhash_lsh_pairs,
    )

    rng = np.random.default_rng(41)
    vocab = [f"tok{i}" for i in range(400)]

    def mk(n_words=40):
        return " ".join(rng.choice(vocab, size=n_words))

    base_texts = [mk() for _ in range(120)]
    # base-internal near-dup (must NOT appear in the incremental output)
    base_texts.append(base_texts[0])
    new_texts = [mk() for _ in range(30)]
    new_texts.append(base_texts[5])          # new x base exact dup
    w = base_texts[7].split(" "); w[3] = "zz"
    new_texts.append(" ".join(w))            # new x base near dup
    new_texts.append(new_texts[0])           # new x new exact dup

    base = pd.DataFrame({"doc_id": range(1000, 1000 + len(base_texts)),
                         "text": base_texts})
    new = pd.DataFrame({"doc_id": range(len(new_texts)),
                        "text": new_texts})
    base_ds = rd.from_pandas(base).repartition(4)
    new_ds = rd.from_pandas(new).repartition(3)

    idx_dir = str(tmp_path / "lshidx")
    minhash_index_write(base_ds, idx_dir, num_perm=64, bands=16,
                        num_shards=8)
    got = (minhash_dedup_incremental(new_ds, idx_dir, base_ds,
                                     threshold=0.6, num_partitions=8)
           .to_pandas().sort_values(["id_a", "id_b"])
           .reset_index(drop=True))

    full = (minhash_lsh_pairs(
        rd.from_pandas(pd.concat([base, new], ignore_index=True)),
        num_perm=64, bands=16, threshold=0.6).to_pandas())
    new_ids = set(new["doc_id"])
    want = (full[full["id_a"].isin(new_ids) | full["id_b"].isin(new_ids)]
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the planted cross-set and in-delta dups are found; the
    # base-internal dup is not re-reported
    pairs = set(zip(got["id_a"], got["id_b"]))
    assert (30, 1005) in pairs and (31, 1007) in pairs \
        and (0, 32) in pairs
    assert (1000, 1120) not in pairs

    # index append: adding the delta's bands then re-running the SAME
    # delta must now also collide with itself through the index
    minhash_index_write(new_ds, idx_dir, num_perm=64, bands=16,
                        num_shards=8, append=True)
    again = (minhash_dedup_incremental(new_ds, idx_dir, base_ds,
                                       threshold=0.6, num_partitions=8)
             .to_pandas())
    assert set(zip(again["id_a"], again["id_b"])) >= pairs

def test_minhash_index_append_crash_safe(ray_session, tmp_path):
    """A retried append must not duplicate band rows: files from an
    append that crashed between its moves and its manifest are rolled
    back before the retry lands (dedup.minhash_index_write)."""
    import glob
    import json
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from crawler_service_ray.functions.dedup import minhash_index_write

    rng = np.random.default_rng(7)
    vocab = [f"tok{i}" for i in range(200)]

    def mk():
        return " ".join(rng.choice(vocab, size=30))

    base = pd.DataFrame({"doc_id": range(100, 140),
                         "text": [mk() for _ in range(40)]})
    delta = pd.DataFrame({"doc_id": range(10),
                          "text": [mk() for _ in range(10)]})
    idx = str(tmp_path / "idx")
    minhash_index_write(rd.from_pandas(base), idx, num_perm=32, bands=8,
                        num_shards=4)

    def nrows():
        return sum(pq.read_table(f).num_rows for f in
                   glob.glob(os.path.join(idx, "shard=*", "*.parquet")))

    n0 = nrows()
    minhash_index_write(rd.from_pandas(delta), idx, num_perm=32, bands=8,
                        num_shards=4, append=True)
    n1 = nrows()
    d_rows = n1 - n0
    assert d_rows == len(delta) * 8  # one band row per (doc, band)
    assert os.path.exists(os.path.join(idx, "appends", "0.json"))

    # simulate an append that crashed after moving its files but
    # before the manifest rename: clone append0's files under the
    # next append id with no manifest
    for f in glob.glob(os.path.join(idx, "shard=*", "append0-*")):
        d, b = os.path.split(f)
        shutil.copy(f, os.path.join(d, b.replace("append0-", "append1-")))
    os.makedirs(os.path.join(idx, ".tmp_append1", "shard=0"),
                exist_ok=True)  # plus a half-written temp dir
    assert nrows() == n1 + d_rows  # the corruption is visible...

    # ...and the retried append rolls it back, landing exactly once
    minhash_index_write(rd.from_pandas(delta), idx, num_perm=32, bands=8,
                        num_shards=4, append=True)
    assert nrows() == n1 + d_rows
    assert not glob.glob(os.path.join(idx, ".tmp_append*"))
    man_path = os.path.join(idx, "appends", "1.json")
    assert os.path.exists(man_path)
    with open(man_path) as fh:
        man = json.load(fh)
    assert man["files"] and all(
        os.path.exists(os.path.join(idx, rel)) for rel in man["files"])

def test_semdedup_keeps_centroid_nearest(ray_session):
    """Within each k-means cell, exactly the lower-priority member of a
    planted near-identical pair is removed, attributed to its survivor
    with the true cosine; unrelated rows all survive."""
    import ray.data as rd

    from crawler_service_ray.functions.dedup import semdedup

    rng = np.random.default_rng(5)
    d = 16
    # three well-separated cluster directions
    dirs = np.eye(d)[:3] * 10.0
    rows = []
    vid = 0
    for ci in range(3):
        for _ in range(12):
            rows.append((vid, dirs[ci] + rng.normal(0, 0.8, d)))
            vid += 1
    # a near-identical pair inside cluster 0 (cos ~ 1)
    base = dirs[0] + rng.normal(0, 0.5, d)
    rows.append((1000, base))
    rows.append((1001, base + 1e-4))
    df = pd.DataFrame({"vec_id": [r[0] for r in rows],
                       "embedding": [r[1] for r in rows]})
    ds = rd.from_pandas(df, override_num_blocks=3)
    out = (semdedup(ds, k=3, threshold=0.98, iters=4)
           .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert len(out) == len(df)
    removed = out[~out["keep"]]
    kept = out[out["keep"]]
    # exactly one of the planted pair is removed, attributed to the
    # other, with its true cosine
    assert set(removed["vec_id"]) <= {1000, 1001}
    assert len(removed) == 1
    r = removed.iloc[0]
    assert int(r["near_id"]) in (1000, 1001)
    assert int(r["near_id"]) != int(r["vec_id"])
    assert r["near_cos"] >= 0.98
    # the survivor is the pair's centroid-nearest member
    surv = int(({1000, 1001} - {int(r["vec_id"])}).pop())
    ssim = float(out.loc[out["vec_id"] == surv, "centroid_sim"].iloc[0])
    rsim = float(r["centroid_sim"])
    assert (ssim > rsim) or (abs(ssim - rsim) < 1e-12
                             and surv < int(r["vec_id"]))
    # everything else survives, with clean kept-row markers
    assert (kept["near_id"] == -1).all()
    assert kept["near_cos"].isna().all()


def test_containment_catches_subset_pair_jaccard_misses(ray_session):
    """A short doc pasted inside a long one: containment ~1.0 while
    jaccard is small — the asymmetric score's reason to exist."""
    import ray.data as rd

    short = "alpha beta gamma delta epsilon zeta"
    filler = " ".join(f"w{i}" for i in range(60))
    long_doc = short + " " + filler
    df = pd.DataFrame({"doc_id": [1, 2], "text": [short, long_doc]})
    ds = rd.from_pandas(df)

    cont = dedup.ngram_jaccard_pairs(
        ds, k=5, threshold=0.8, score="containment",
        num_partitions=2).to_pandas()
    assert len(cont) == 1
    assert cont.iloc[0]["containment"] == 1.0  # every 5-gram of short ⊂ long

    jac = dedup.ngram_jaccard_pairs(
        ds, k=5, threshold=0.8, num_partitions=2).to_pandas()
    assert len(jac) == 0  # union-normalized score can't see the subset
