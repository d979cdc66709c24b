"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k is the exact baseline: the query matrix is
normalized once, ``ray.put`` once, and every batch of the corpus does one
numpy matmul against it — the corpus streams, only (query, candidate,
score) triples shuffle for the final top-k reduce. The IVF variant is the
scale path: k-means-lite centroids assign each vector to a cell; queries
probe only the nearest cells, so the matmul touches a fraction of the
corpus. Both are deterministic (fixed seed for centroid init).

All ranking math is float64 so near-tie orderings match DuckDB's
double-precision ``list_cosine_similarity`` oracle at any scale factor.
Scorer stages run as plain tasks — their only state is the broadcast
query/centroid pack, plasma-backed and cached per worker process — so
they pay no actor-pool spin-up and have no restart hazards.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data as rd


def _stack_normalized(series: pd.Series) -> np.ndarray:
    M = np.stack(series.to_numpy()).astype(np.float64)
    return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)


def _bcast(ref):
    """Resolve a broadcast ref via the shared per-worker LRU (scorer
    stages run as plain tasks — no per-worker state beyond this)."""
    from .relational import resolve_broadcast

    return resolve_broadcast(ref)


def train_centroids(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    num_cells: int = 16,
    sample_size: int = 2048,
    seed: int = 42,
    id_col: str | None = None,
) -> np.ndarray:
    """Deterministic k-means-lite centroids from a bounded sample: random
    init from the sample (fixed seed), one Lloyd refinement, normalized.
    The sample is the only driver-side materialization (≤ sample_size
    rows).

    With ``id_col`` the sample is bottom-k BY HASH of the id — a uniform
    sample that is a pure function of row CONTENT, so centroids (and
    every IVF cell assignment downstream) are identical under any block
    layout / read parallelism. Without it, ``limit()`` takes the first
    rows in block order (layout-dependent — legacy path)."""
    if id_col is not None:
        def local(df: pd.DataFrame) -> pd.DataFrame:
            h = pd.util.hash_array(
                df[id_col].to_numpy().astype(np.uint64)
            )
            return df[[id_col, vec_col]].assign(__h=h).nsmallest(
                sample_size, "__h"
            )

        sample = (
            ds.map_batches(local, batch_format="pandas")
            .repartition(1)
            .map_batches(
                lambda df: df.nsmallest(sample_size, "__h"),
                batch_format="pandas", batch_size=None,
            )
            .to_pandas()
        )
    else:
        sample = ds.limit(sample_size).to_pandas()
    S = _stack_normalized(sample[vec_col])
    rng = np.random.default_rng(seed)
    C = S[rng.choice(len(S), size=min(num_cells, len(S)), replace=False)]
    assign = np.argmax(S @ C.T, axis=1)
    for c in range(C.shape[0]):
        members = S[assign == c]
        if len(members):
            C[c] = members.mean(axis=0)
    return C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)


def brute_force_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    exclude_self: bool = True,
) -> rd.Dataset:
    """Exact cosine top-k of each query against the whole dataset.

    Per corpus batch: float64 matmul queries×batch, keep each query's
    local top-k (small rows out); final exact top-k per query via
    groupby. Output: (query_id, neighbor_id, cosine, rank), rank 1..k.
    """
    Qn = queries.astype(np.float64)
    Qn = Qn / np.maximum(np.linalg.norm(Qn, axis=1, keepdims=True), 1e-12)
    qref = ray.put((Qn, np.asarray(query_ids)))
    refs = [qref]

    def score_batch(df: pd.DataFrame) -> pd.DataFrame:
        Q, qids = _bcast(refs[0])
        M = _stack_normalized(df[vec_col])
        sims = Q @ M.T  # (nq, nb)
        ids = df[id_col].to_numpy()
        nq, nb = sims.shape
        if exclude_self:
            mask = qids[:, None] == ids[None, :]
            sims = np.where(mask, -np.inf, sims)
        kk = min(k, nb)
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows_q = np.repeat(qids, kk)
        rows_n = ids[top.ravel()]
        rows_s = np.take_along_axis(sims, top, axis=1).ravel()
        keep = np.isfinite(rows_s)
        return pd.DataFrame(
            {
                "query_id": rows_q[keep],
                "neighbor_id": rows_n[keep],
                "cosine": rows_s[keep].astype("float64"),
            }
        )

    partials = ds.map_batches(score_batch, batch_format="pandas")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cosine", "neighbor_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype="int64"))
        return g

    return partials.groupby("query_id").map_groups(
        final_topk, batch_format="pandas"
    )


def ivf_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    num_cells: int = 16,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    sample_size: int = 2048,
    seed: int = 42,
) -> rd.Dataset:
    """Approximate top-k via IVF cells: centroids from a deterministic
    sample (``train_centroids``), each vector assigned to its nearest
    centroid inside ``map_batches``; each query scores only its
    ``nprobe`` nearest cells. The cell assignment is the partitioning a
    100-TB corpus would be written with, making search reads
    proportional to nprobe/num_cells of the data."""
    C = train_centroids(ds, vec_col=vec_col, num_cells=num_cells,
                        sample_size=sample_size, seed=seed, id_col=id_col)
    Q = queries.astype(np.float64)
    Q = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-12)
    probe_cells = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]
    wanted = [set(row) for row in probe_cells]
    cref = ray.put((C, Q, np.asarray(query_ids), wanted))
    refs = [cref]

    def cell_score_batch(df: pd.DataFrame) -> pd.DataFrame:
        C_, Q_, qids, wanted_ = _bcast(refs[0])
        M = _stack_normalized(df[vec_col])
        cells = np.argmax(M @ C_.T, axis=1)
        ids = df[id_col].to_numpy()
        out = []
        for qi, cellset in enumerate(wanted_):
            sel = np.isin(cells, list(cellset))
            if not sel.any():
                continue
            sims = Q_[qi] @ M[sel].T
            cand_ids = ids[sel]
            notself = cand_ids != qids[qi]
            kk = min(k, int(notself.sum()))
            if kk == 0:
                continue
            simn = sims[notself]
            top = np.argpartition(-simn, kk - 1)[:kk]
            out.append(
                pd.DataFrame(
                    {
                        "query_id": np.repeat(qids[qi], kk),
                        "neighbor_id": cand_ids[notself][top],
                        "cosine": simn[top].astype("float64"),
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {"query_id": [], "neighbor_id": [], "cosine": []}
            )
        return pd.concat(out, ignore_index=True)

    partials = ds.map_batches(cell_score_batch, batch_format="pandas")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cosine", "neighbor_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return g.assign(rank=np.arange(1, len(g) + 1, dtype="int64"))

    return partials.groupby("query_id").map_groups(
        final_topk, batch_format="pandas"
    )


def kmeans(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 8,
    iters: int = 5,
    seed: int = 42,
) -> tuple[np.ndarray, rd.Dataset]:
    """Distributed spherical k-means (Lloyd): semantic clustering for
    mixing/curation over the embedding column.

    Init comes from :func:`train_centroids`'s content-hash sample (block-
    layout-invariant). Each Lloyd iteration broadcasts the k×d centroid
    matrix and runs ONE map_batches pass: per batch, one argmax matmul
    assigns vectors, then per-centroid partial (sum, count) rows leave
    the block — k×(d+1) floats per block, never the vectors. The partial
    merge is a driver-side reduce over O(k·d·blocks) numbers (documented
    bound — k and d are model constants; at 100 TB blocks is the only
    growing factor and the partials still fit in MBs). Empty clusters
    keep their previous centroid. Returns (centroids, assignment Dataset
    of (id, cluster, sim)) — assignment is one further streaming pass.

    Determinism: fixed seed + content-hash sample init + float64 matmuls
    → centroids/assignments identical at any parallelism UP TO float
    reassociation (per-centroid partial sums reduce in block order, so
    the last ~1 ulp can differ across block counts; a point whose top-2
    centroid sims are within that noise can flip). Pinned by
    tests/test_text_similarity.py against a single-node numpy Lloyd
    with a near-tie tolerance.
    """
    # iterative passes: pin the (id, vector) working set in the object
    # store once — otherwise every Lloyd iteration re-executes the read
    # chain. Plasma spills to disk if the table outgrows memory, which
    # is still far cheaper than iters× re-reads from source.
    ds = ds.materialize()
    C = train_centroids(ds, vec_col=vec_col, num_cells=k,
                        seed=seed, id_col=id_col)
    C = C / np.maximum(np.linalg.norm(C, axis=1, keepdims=True), 1e-12)

    for _ in range(max(0, iters)):
        ref = ray.put(C)

        def partials(df: pd.DataFrame) -> pd.DataFrame:
            Cw = _bcast(ref)
            X = _stack_normalized(df[vec_col])
            a = np.argmax(X @ Cw.T, axis=1)
            kk, d = Cw.shape
            sums = np.zeros((kk, d)); counts = np.zeros(kk, dtype=np.int64)
            np.add.at(sums, a, X)
            np.add.at(counts, a, 1)
            nz = counts > 0
            return pd.DataFrame({
                "c": np.arange(kk)[nz],
                "n": counts[nz],
                "s": list(sums[nz]),
            })

        p = ds.map_batches(partials, batch_format="pandas").to_pandas()
        sums = np.zeros_like(C); counts = np.zeros(len(C), dtype=np.int64)
        for c, n, s in zip(p["c"], p["n"], p["s"]):
            sums[int(c)] += np.asarray(s); counts[int(c)] += int(n)
        newC = C.copy()
        nz = counts > 0
        newC[nz] = sums[nz] / counts[nz, None]
        C = newC / np.maximum(
            np.linalg.norm(newC, axis=1, keepdims=True), 1e-12)

    ref = ray.put(C)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        Cw = _bcast(ref)
        X = _stack_normalized(df[vec_col])
        S = X @ Cw.T
        a = np.argmax(S, axis=1)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "cluster": a.astype("int64"),
            "sim": S[np.arange(len(a)), a],
        })

    return C, ds.map_batches(assign, batch_format="pandas")


def pca_fit(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    k: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distributed PCA fit: ONE ``map_batches`` pass emits per-block
    moment partials (n, Σx, ΣxxT — d + d² floats per block, d small),
    the driver merges them and eigendecomposes the d×d covariance.
    Nothing row-scale ever reaches the driver, so the fit is
    100-TB-safe whenever d² × blocks is small (the embedding-table
    regime: d ≤ a few hundred).

    Returns ``(mean (d,), components (k,d), eigvals (k,))`` with a
    deterministic sign convention (each component's largest-|coord|
    entry is positive) so outputs are stable across runs and
    parallelism up to float64 reassociation of the block-order sums.
    Components are orthonormal (checked; raises on pathology).
    """

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        return pd.DataFrame({
            "n": [len(X)],
            "s": [X.sum(axis=0).tolist()],
            "ss": [(X.T @ X).ravel().tolist()],
        })

    p = ds.map_batches(partials, batch_format="pandas").to_pandas()
    n = int(p["n"].sum())
    if n == 0:
        raise ValueError("pca_fit: empty input")
    d = len(p["s"].iloc[0])
    s = np.add.reduce([np.asarray(x, dtype=np.float64) for x in p["s"]])
    S = np.add.reduce(
        [np.asarray(x, dtype=np.float64).reshape(d, d) for x in p["ss"]])
    mean = s / n
    cov = S / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)       # ascending
    order = np.argsort(evals)[::-1][:k]
    comps = evecs[:, order].T.copy()         # (k, d)
    for i in range(k):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    g = comps @ comps.T
    if not np.allclose(g, np.eye(k), atol=1e-8):
        raise ValueError("pca_fit: components not orthonormal "
                         f"(max dev {np.abs(g - np.eye(k)).max():.2e})")
    return mean, comps, evals[order]


def pca_project(
    ds: rd.Dataset,
    mean: np.ndarray,
    components: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    out_col: str = "pc",
) -> rd.Dataset:
    """Project every row onto the fitted components: (mean, components)
    ship ONCE via ``ray.put`` + the per-worker broadcast LRU; each batch
    is one centered matmul. Output: ``(id_col, out_col: list<double>)``."""
    ref = ray.put((np.asarray(mean, dtype=np.float64),
                   np.asarray(components, dtype=np.float64)))

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        mu, C = _bcast(ref)
        X = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        P = (X - mu) @ C.T
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            out_col: list(P),
        })

    return ds.map_batches(proj, batch_format="pandas")


def _pq_subspaces(X: np.ndarray, m: int) -> np.ndarray:
    """(n, d) -> (m, n, d/m) contiguous subspace views."""
    n, d = X.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m} subspaces")
    return X.reshape(n, m, d // m).transpose(1, 0, 2)


def _pq_assign(Xs: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Per-subspace nearest-centroid codes: Xs (m, n, dsub), C
    (m, k, dsub) -> (n, m) int codes. argmin of ||x-c||² via the
    expanded form (one matmul per subspace, no n×k×dsub temp)."""
    m = Xs.shape[0]
    codes = np.empty((Xs.shape[1], m), dtype=np.int64)
    for j in range(m):
        d2 = (C[j] ** 2).sum(axis=1)[None, :] - 2.0 * (Xs[j] @ C[j].T)
        codes[:, j] = np.argmin(d2, axis=1)
    return codes


def pq_fit(
    ds: rd.Dataset,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    m: int = 4,
    k: int = 16,
    iters: int = 5,
    seed: int = 42,
) -> np.ndarray:
    """Distributed product-quantization codebooks (the embedding-
    compression path for 100-TB ANN corpora: m uint8 codes replace a
    d-float vector; IVF-PQ is this plus `ivf_topk`'s cells): split d
    dims into m subspaces, per subspace k-means (EUCLIDEAN Lloyd — PQ
    reconstructs raw subvectors, so no unit normalization) trained for
    ALL m subspaces in ONE map_batches pass per iteration. Per block
    only m×k (sum, count) partial rows of dsub floats leave; the merge
    is a driver-side reduce over model-constant-sized partials.

    Init is the bottom-k-by-(id-hash, id) sample — content-derived AND
    content-tiebroken, so codebooks are identical under any block
    layout unconditionally (sorting by hash alone would resolve equal
    hashes by block concatenation order; sorting by (hash, id) breaks
    ties on content, which duplicate-id inputs would otherwise hit);
    empty clusters keep their previous centroid. Returns (m, k, d/m)
    float64 codebooks, identical at any parallelism up to float
    reassociation of the partial sums."""
    ds = ds.materialize()

    def sample_local(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_array(df[id_col].to_numpy().astype(np.uint64))
        idx = np.lexsort((df[id_col].to_numpy(), h))[:k]
        return df.iloc[idx][[id_col, vec_col]].assign(__h=h[idx])

    samp = (ds.map_batches(sample_local, batch_format="pandas")
            .to_pandas().sort_values(["__h", id_col], kind="mergesort")
            .head(k))
    if len(samp) < k:
        raise ValueError(f"need at least k={k} rows to init PQ")
    X0 = np.stack(samp[vec_col].to_numpy()).astype(np.float64)
    d = X0.shape[1]
    C = np.ascontiguousarray(
        X0.reshape(k, m, d // m).transpose(1, 0, 2))  # (m, k, dsub)

    for _ in range(max(0, iters)):
        ref = ray.put(C)

        def partials(df: pd.DataFrame) -> pd.DataFrame:
            Cw = _bcast(ref)
            X = np.stack(df[vec_col].to_numpy()).astype(np.float64)
            Xs = _pq_subspaces(X, m)
            codes = _pq_assign(Xs, Cw)
            rows = []
            for j in range(m):
                sums = np.zeros((k, d // m))
                counts = np.zeros(k, dtype=np.int64)
                np.add.at(sums, codes[:, j], Xs[j])
                np.add.at(counts, codes[:, j], 1)
                nz = counts > 0
                rows.append(pd.DataFrame({
                    "j": j, "c": np.arange(k)[nz], "n": counts[nz],
                    "s": list(sums[nz])}))
            return pd.concat(rows, ignore_index=True)

        p = ds.map_batches(partials, batch_format="pandas").to_pandas()
        sums = np.zeros_like(C)
        counts = np.zeros((m, k), dtype=np.int64)
        for j, c, n, s in zip(p["j"], p["c"], p["n"], p["s"]):
            sums[int(j), int(c)] += np.asarray(s)
            counts[int(j), int(c)] += int(n)
        nz = counts > 0
        C = C.copy()
        C[nz] = sums[nz] / counts[nz][:, None]
    return C


def pq_encode(
    ds: rd.Dataset,
    codebooks: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Encode vectors to PQ codes: ONE streaming pass, codebooks
    broadcast once via ray.put. Emits (id, code_0..code_{m-1},
    recon_sse) — codes are the per-subspace nearest centroids,
    recon_sse the squared reconstruction error (Σ_j ||x_j − c_j||²),
    carried so downstream audits never need the vectors again."""
    m = codebooks.shape[0]
    ref = ray.put(codebooks)

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        Cw = _bcast(ref)
        X = np.stack(df[vec_col].to_numpy()).astype(np.float64)
        Xs = _pq_subspaces(X, m)
        codes = _pq_assign(Xs, Cw)
        sse = np.zeros(len(df))
        for j in range(m):
            diff = Xs[j] - Cw[j][codes[:, j]]
            sse += (diff * diff).sum(axis=1)
        out = pd.DataFrame({id_col: df[id_col].astype("int64")})
        for j in range(m):
            out[f"code_{j}"] = codes[:, j].astype("int64")
        out["recon_sse"] = sse
        return out

    return ds.map_batches(encode, batch_format="pandas")


def pq_topk(
    enc: rd.Dataset,
    codebooks: np.ndarray,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Asymmetric-distance (ADC) top-k over a PQ-ENCODED corpus — the
    search side of `pq_fit`/`pq_encode`: the corpus never decompresses;
    each task builds per-query m×k distance lookup tables ONCE from the
    broadcast (codebooks, queries) and scores a batch of codes with m
    table-gathers per query (no per-vector float math). Per block only
    k candidate rows per query leave; the final exact top-k merge runs
    on nq×k×blocks rows. Returns (query_id, neighbor_id, rank, adist) —
    adist is the ADC approximation of ||q − x||², exact rank order of
    the QUANTIZED corpus."""
    from .relational import topk_per_group

    m, kc, dsub = codebooks.shape
    ref = ray.put((codebooks, np.asarray(queries, dtype=np.float64),
                   np.asarray(query_ids)))
    code_cols = [f"code_{j}" for j in range(m)]

    def score(df: pd.DataFrame) -> pd.DataFrame:
        C, Q, qids = _bcast(ref)
        Qs = Q.reshape(len(Q), m, dsub)
        # LUT[q, j, c] = ||Q[q,j] - C[j,c]||^2
        lut = ((Qs[:, :, None, :] - C[None, :, :, :]) ** 2).sum(axis=3)
        codes = df[code_cols].to_numpy()
        n = len(df)
        outs = []
        for qi in range(len(Q)):
            d = np.zeros(n)
            for j in range(m):
                d += lut[qi, j][codes[:, j]]
            # tiebreak on neighbor id so block layout cannot change
            # which of several adist-equal rows survives the per-block
            # truncation (the global merge breaks ties the same way)
            top = np.lexsort((df[id_col].to_numpy(), d))[:k]
            outs.append(pd.DataFrame({
                "query_id": qids[qi],
                "neighbor_id": df[id_col].to_numpy()[top],
                "adist": d[top]}))
        return pd.concat(outs, ignore_index=True)

    cand = enc.map_batches(score, batch_format="pandas")
    top = topk_per_group(cand, keys=["query_id"],
                         by=["adist", "neighbor_id"], k=k,
                         descending=[False, False])

    def add_rank(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "adist", "neighbor_id"],
                            kind="mergesort").reset_index(drop=True)
        df["rank"] = df.groupby("query_id").cumcount() + 1
        return df

    return top.map_batches(add_rank, batch_format="pandas")


def lsh_topk(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    n_tables: int = 8,
    n_bits: int = 12,
    seed: int = 97,
    multiprobe: bool = True,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Approximate cosine top-k via random-hyperplane LSH (Charikar
    2002) — the hash-bucketed ANN scale path next to `ivf_topk`'s
    cell-partitioned one. ``n_tables`` independent ``n_bits``-bit
    sign-projection codes; a corpus row is a candidate for a query iff
    they share a code in ANY table; candidates rerank by exact cosine.

    Scale shape: the hyperplane tensor + query codes broadcast once
    (``ray.put``); each corpus batch computes its own codes with one
    (B×d)@(d×L·b) matmul and matches them against the per-table SORTED
    query-code arrays via searchsorted + run arithmetic (no Python loop
    over rows), exact-scores only the matched pairs it already holds
    in memory, and emits ≤ k rows per (query, batch) — one streaming
    pass, NO shuffle, final per-query top-k is the only reduction.
    Collision prob of one bit is (1-θ/π), so a table matches with
    (1-θ/π)^n_bits and tables union: recall is MONOTONE in n_tables by
    construction (table t's candidates are a subset of t+1's — the
    audit exploits this)."""
    rng = np.random.default_rng(seed)
    L, b, d = n_tables, n_bits, queries.shape[1]
    H = rng.standard_normal((L, b, d))
    pow2 = (1 << np.arange(b, dtype=np.int64))

    Qn = queries.astype(np.float64)
    Qn = Qn / np.maximum(np.linalg.norm(Qn, axis=1, keepdims=True), 1e-12)
    # (L, Q) query codes; per table: sorted codes + the query-index
    # permutation so batch-side lookups are two searchsorteds
    qcodes = ((np.einsum("lbd,qd->lqb", H, Qn) > 0) @ pow2)  # (L, Q)
    if multiprobe:
        # multi-probe (Lv et al. 2007): each query also probes every
        # 1-bit-flipped code — (b+1)× more QUERY-side entries per
        # table, zero extra corpus work, ~(1+b·(1-p)/p)× the per-table
        # collision probability
        flips = qcodes[:, :, None] ^ pow2[None, None, :]      # (L, Q, b)
        probe = np.concatenate([qcodes[:, :, None], flips], axis=2)
        qcodes = probe.reshape(L, -1)                          # (L, Q·(b+1))
        qidx = np.repeat(np.arange(len(Qn)), b + 1)
    else:
        qidx = np.arange(len(Qn))
    order = np.argsort(qcodes, axis=1, kind="stable")
    qsorted = np.take_along_axis(qcodes, order, axis=1)
    order = qidx[order]  # sorted-probe position -> query index
    qref = ray.put((H, pow2, Qn, np.asarray(query_ids), qsorted, order))
    refs = [qref]

    def score_batch(df: pd.DataFrame) -> pd.DataFrame:
        H_, pow2_, Q_, qids, qsorted_, order_ = _bcast(refs[0])
        M = _stack_normalized(df[vec_col])
        ids = df[id_col].to_numpy()
        bcodes = ((np.einsum("lbd,nd->lnb", H_, M) > 0) @ pow2_)  # (L, B)
        pair_q: list[np.ndarray] = []
        pair_r: list[np.ndarray] = []
        for l in range(len(H_)):
            lo = np.searchsorted(qsorted_[l], bcodes[l], side="left")
            hi = np.searchsorted(qsorted_[l], bcodes[l], side="right")
            cnt = hi - lo
            if not cnt.any():
                continue
            rows = np.repeat(np.arange(len(ids)), cnt)
            # ranges [lo, hi) into the sorted-query array, expanded
            starts = np.repeat(lo, cnt)
            offs = np.arange(cnt.sum()) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
            pair_q.append(order_[l][starts + offs])
            pair_r.append(rows)
        if not pair_q:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "neighbor_id": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        qi = np.concatenate(pair_q)
        ri = np.concatenate(pair_r)
        u = np.unique(qi.astype(np.int64) * len(ids) + ri)
        qi, ri = u // len(ids), u % len(ids)
        sims = np.einsum("pd,pd->p", Q_[qi], M[ri])
        notself = qids[qi] != ids[ri]
        g = pd.DataFrame({"query_id": qids[qi][notself],
                          "neighbor_id": ids[ri][notself],
                          "cosine": sims[notself].astype("float64")})
        g = g.sort_values(["query_id", "cosine", "neighbor_id"],
                          ascending=[True, False, True], kind="mergesort")
        return g.groupby("query_id", sort=False).head(k)

    partials = ds.map_batches(score_batch, batch_format="pandas")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine", "neighbor_id"],
                          ascending=[False, True], kind="mergesort").head(k)
        return g.assign(rank=np.arange(1, len(g) + 1, dtype="int64"))

    return partials.groupby("query_id").map_groups(
        final_topk, batch_format="pandas")
