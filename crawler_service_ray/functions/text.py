"""Text analysis stages for training-data pipelines.

Language ID (character n-gram heuristic), quality scoring (length /
punctuation / stopword ratios), token counting (whitespace + BPE-ish
regex), and rolling-hash document fingerprinting — each a vectorized or
actor-pool ``map_batches`` stage over the ``documents`` table. Stateful
setup (compiled regexes, n-gram profiles) happens once per actor in
``__init__`` (the ST2/ST3 pattern,
`/root/reference/crawlers/globus_base_preserved.py:41-42,225-226`).
"""

from __future__ import annotations

import re
from functools import partial
from typing import Sequence

import numpy as np
import pandas as pd

import ray.data as rd

# tiny deterministic per-language marker profiles (public linguistic
# commonplaces, good enough for a heuristic scorer over synthetic text)
_LANG_MARKERS = {
    "en": (" the ", " and ", " of ", " to ", " is "),
    "es": (" el ", " la ", " de ", " que ", " los "),
    "fr": (" le ", " la ", " les ", " des ", " est "),
    "de": (" der ", " die ", " und ", " das ", " ist "),
    "zh": ("的", "了", "是", "我", "不"),
}

_STOPWORDS = {
    "the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "on",
    "with", "as", "was", "at", "by", "an", "be", "this", "are", "from",
}

# fingerprint of an empty document (its single "" gram), precomputed
_EMPTY_FP = np.uint64(
    pd.util.hash_array(np.array([""], dtype=object))[0]
)


class LangId:
    """Heuristic language ID: count marker-substring hits per language
    (vectorized ``str.count`` per marker), plus a CJK codepoint-ratio
    fast path; emits (id, lang_pred, lang_score)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col, self.id_col = text_col, id_col
        self.markers = _LANG_MARKERS

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        s = " " + df[self.text_col].astype(str) + " "
        scores = {}
        for lang, marks in self.markers.items():
            sc = np.zeros(len(s))
            for m in marks:
                sc += s.str.count(re.escape(m)).to_numpy()
            scores[lang] = sc
        # CJK ratio dominates for zh
        cjk = s.str.count(r"[一-鿿]").to_numpy()
        total_len = s.str.len().to_numpy().clip(min=1)
        scores["zh"] = scores["zh"] + 10.0 * cjk / total_len * 5
        mat = np.stack([scores[l] for l in self.markers])
        langs = np.array(list(self.markers))
        best = mat.argmax(axis=0)
        return pd.DataFrame(
            {
                self.id_col: df[self.id_col],
                "lang_pred": langs[best],
                "lang_score": mat.max(axis=0).astype("float64"),
            }
        )


def quality_features(
    df: pd.DataFrame, text_col: str = "text", id_col: str = "doc_id"
) -> pd.DataFrame:
    """Vectorized quality metrics: n_chars, n_words, mean_word_len,
    punct_ratio, stopword_ratio, quality_score ∈ [0,1].

    Counting runs on Arrow's RE2 kernels — the SAME regex engine DuckDB
    uses — so every column matches the oracle (SQL_QUALITY) bit-for-bit
    in float64 even on Unicode edge cases (python-re's \\S is
    Unicode-aware while RE2's is ASCII; mixing engines diverges on
    NBSP/ideographic spaces)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    s = df[text_col].astype(str)
    arr = pa.array(s)
    n_chars = pc.utf8_length(arr).to_numpy().astype("int64")
    n_words = pc.count_substring_regex(arr, pattern=r"\S+").to_numpy().astype(
        "int64"
    )
    mean_wl = np.where(
        n_words > 0, (s.str.replace(" ", "", regex=False).str.len()) / np.maximum(n_words, 1), 0.0
    )
    punct = pc.count_substring_regex(
        arr, pattern=r"[^0-9A-Za-z_\t\n\f\r ]"
    ).to_numpy()
    punct_ratio = punct / np.maximum(n_chars, 1)
    # stopword count: explode single-space tokens, vectorized membership
    toks = s.str.lower().str.split(" ").explode()
    stop = (
        toks.isin(_STOPWORDS)
        .groupby(level=0)
        .sum()
        .reindex(s.index, fill_value=0)
        .to_numpy()
        .astype("int64")
    )
    stop_ratio = stop / np.maximum(n_words, 1)
    score = (
        np.clip(n_words / 100, 0, 1) * 0.4
        + np.clip(1 - punct_ratio * 5, 0, 1) * 0.3
        + np.clip(stop_ratio * 4, 0, 1) * 0.3
    )
    return pd.DataFrame(
        {
            id_col: df[id_col],
            "n_chars_actual": n_chars.astype("int64"),
            "n_words": n_words,
            "mean_word_len": mean_wl.astype("float64"),
            "punct_ratio": punct_ratio.astype("float64"),
            "stopword_ratio": stop_ratio.astype("float64"),
            "quality_score": score.astype("float64"),
        }
    )


class TokenCounter:
    """Token counting with a BPE-ish pre-tokenizer regex (letters /
    digits / single punctuation, GPT-2-style shape) — vectorized with
    Arrow's RE2 ``count_substring_regex`` kernel (4-8× faster than
    per-row findall and identical to the DuckDB RE2 oracle)."""

    BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.compute as pc

        arr = pa.array(df[self.text_col].astype(str))
        n_ws = pc.count_substring_regex(arr, pattern=r"\S+")
        n_bpe = pc.count_substring_regex(arr, pattern=self.BPE_PATTERN)
        return pd.DataFrame(
            {
                self.id_col: df[self.id_col],
                "n_ws_tokens": n_ws.to_numpy().astype("int64"),
                "n_bpe_tokens": n_bpe.to_numpy().astype("int64"),
            }
        )


def fingerprint_batch(
    df: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
    window: int = 8,
) -> pd.DataFrame:
    """Winnowing-style document fingerprint, batch-vectorized: ONE
    word-level hash pass, numeric rolling 4-gram hashes (no string
    concatenation), a single global sliding-window argmin over the flat
    gram array (per-doc segments select only their in-bounds windows),
    and a per-doc XOR fold of the unique selected hashes (XOR is
    order-free, so the fold needs no per-doc loop — one
    ``bitwise_xor.reduceat``). Deterministic; near-identical docs share
    most selected hashes so their fingerprints differ, but their
    ``n_anchors``/anchor overlap exposes the similarity."""
    from .dedup import _mix64

    k = 4
    n = len(df)
    words = df[text_col].astype(str).str.split()
    lens = words.str.len().fillna(0).to_numpy().astype(np.int64)
    fps = np.full(n, _EMPTY_FP, dtype=np.uint64)
    n_sel = np.ones(n, dtype=np.int64)  # empty docs: the single "" gram
    if lens.sum() == 0:
        return pd.DataFrame(
            {id_col: df[id_col], "fingerprint": fps, "n_anchors": n_sel}
        )
    flat = np.concatenate(
        [w for w in words.to_numpy() if isinstance(w, list) and w]
    ).astype(object)
    wh = pd.util.hash_array(flat)
    ngr = np.where(lens == 0, 0, np.maximum(lens - k + 1, 1))
    G0 = np.zeros(n + 1, np.int64)
    np.cumsum(lens, out=G0[1:])
    S0 = np.zeros(n + 1, np.int64)
    np.cumsum(ngr, out=S0[1:])
    total = int(S0[-1])
    gs = np.arange(total) - np.repeat(S0[:-1], ngr) + np.repeat(G0[:-1], ngr)
    ends = np.repeat(G0[1:], ngr)
    h = wh[gs].astype(np.uint64)
    for j in range(1, k):
        idx = np.minimum(gs + j, ends - 1)
        h = _mix64(h ^ wh[idx].astype(np.uint64))
    doc_of = np.repeat(np.arange(n), ngr)
    sel_mask = np.zeros(total, dtype=bool)
    nonempty = ngr > 0
    # small segments (≤ window grams): the selected set is {segment min} —
    # mark every position holding the doc min (duplicates collapse later)
    small = nonempty & (ngr <= window)
    if small.any():
        starts = S0[:-1][nonempty]
        seg_min = np.minimum.reduceat(h, starts)
        doc_min = np.zeros(n, dtype=np.uint64)
        doc_min[nonempty] = seg_min
        is_small_pos = small[doc_of]
        sel_mask |= is_small_pos & (h == doc_min[doc_of])
    # large segments: one global stride view; each doc keeps only its
    # in-bounds window starts
    big = ngr > window
    if big.any() and total >= window:
        sw = np.lib.stride_tricks.sliding_window_view(h, window)
        am = sw.argmin(axis=1) + np.arange(total - window + 1)
        n_win = ngr[big] - window + 1
        win_starts = (
            np.arange(int(n_win.sum()))
            - np.repeat(np.concatenate(([0], np.cumsum(n_win)[:-1])), n_win)
            + np.repeat(S0[:-1][big], n_win)
        )
        sel_mask[am[win_starts]] = True
    sel_doc = doc_of[sel_mask]
    sel_h = h[sel_mask]
    order = np.lexsort((sel_h, sel_doc))
    sd, sh = sel_doc[order], sel_h[order]
    first = np.ones(len(sd), dtype=bool)
    first[1:] = (sd[1:] != sd[:-1]) | (sh[1:] != sh[:-1])
    sd, sh = sd[first], sh[first]
    seg_starts = np.nonzero(
        np.concatenate(([True], sd[1:] != sd[:-1]))
    )[0]
    folded = _mix64(
        np.bitwise_xor.reduceat(_mix64(sh), seg_starts)
    )
    present = sd[seg_starts]
    fps[present] = folded
    counts = np.bincount(sd, minlength=n)
    n_sel[present] = counts[present]
    return pd.DataFrame(
        {id_col: df[id_col], "fingerprint": fps, "n_anchors": n_sel}
    )


# PII patterns, applied IN ORDER (emails/IPs first so the bare digit-run
# pattern never eats their digits). All three are RE2-compatible, so the
# Arrow kernels and DuckDB's regexp_* (both RE2) match bit-for-bit.
PII_PATTERNS: tuple[tuple[str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"),
    ("number", r"\d{2,}"),
)


class PiiRedactor:
    """PII scrubbing for training-data export: sequentially count and
    replace email / IPv4 / digit-run matches with a redaction token —
    the standard pre-training privacy pass. Fully vectorized on Arrow's
    RE2 kernels (``count_substring_regex`` + ``replace_substring_regex``);
    the replacement token contains no digits, so later patterns never
    re-match inside an earlier redaction (which makes the sequential
    composition order-stable and SQL-mirrorable as nested
    ``regexp_replace``). Emits (id, n_pii, redacted)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 token: str = "<PII>"):
        self.text_col, self.id_col, self.token = text_col, id_col, token

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.compute as pc

        arr = pa.array(df[self.text_col].astype(str))
        n = np.zeros(len(df), dtype=np.int64)
        for _name, pat in PII_PATTERNS:
            n += pc.count_substring_regex(arr, pattern=pat).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            arr = pc.replace_substring_regex(
                arr, pattern=pat, replacement=self.token
            )
        return pd.DataFrame(
            {
                self.id_col: df[self.id_col],
                "n_pii": n,
                "redacted": arr.to_pandas().astype(str),
            }
        )


class TextNormalizer:
    """Canonical text-normalization pass for training-data export:
    lowercase, strip characters outside [a-z0-9 ], collapse whitespace
    runs, trim. All four steps are Arrow RE2/utf8 kernels with exact
    DuckDB ``lower``/``regexp_replace``/``trim`` equivalents, so the
    normalized string itself is oracle-checkable. Emits
    (id, norm_text, norm_len)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.compute as pc

        arr = pa.array(df[self.text_col].astype(str))
        arr = pc.utf8_lower(arr)
        arr = pc.replace_substring_regex(arr, pattern=r"[^a-z0-9 ]",
                                         replacement=" ")
        arr = pc.replace_substring_regex(arr, pattern=r" +",
                                         replacement=" ")
        arr = pc.utf8_trim(arr, characters=" ")
        return pd.DataFrame(
            {
                self.id_col: df[self.id_col],
                "norm_text": arr.to_pandas().astype(str),
                "norm_len": pc.utf8_length(arr).to_numpy(
                    zero_copy_only=False
                ).astype("int64"),
            }
        )


def vocab_topk(
    ds: rd.Dataset,
    k: int = 50,
    text_col: str = "text",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Corpus vocabulary / term-frequency top-k — the classic wordcount
    a tokenizer-training or corpus-stats pass runs. Per-batch partial
    counts (split+explode+value_counts, all C-backed) shrink each block
    to its distinct words BEFORE the exchange; ``grouped_agg`` merges
    partials (partitioned merge for 100-TB vocabularies via
    ``merge_partitions``); ``topk`` truncates per-block before the final
    small sort. Tokenization is single-space split with empties dropped
    (DuckDB ``string_split(text, ' ')`` parity). Ties break on word ASC."""
    from .relational import grouped_agg, topk

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split(" ").explode()
        toks = toks[(toks != "") & toks.notna()]
        vc = toks.value_counts()
        return pd.DataFrame(
            {
                "word": vc.index.to_numpy().astype(object),
                "cnt": vc.to_numpy().astype("int64"),
            }
        )

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pandas"
    )
    agg = grouped_agg(
        partials, ["word"], {"cnt": ("cnt", "sum")},
        merge_partitions=merge_partitions,
    )
    return topk(agg, ["cnt", "word"], k, descending=[True, False])


def js_divergence(
    ds: rd.Dataset,
    text_col: str,
    group_col: str,
    group_a,
    group_b,
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Jensen–Shannon divergence (base 2, so ∈ [0, 1]) between two
    corpora's unigram distributions — the distribution-drift detector a
    data-mixing pipeline runs between sources, snapshots, or a corpus
    and a benchmark before deciding mixing weights. JS(P‖Q) =
    ½·KL(P‖M) + ½·KL(Q‖M) with M = (P+Q)/2; symmetric and finite even
    on disjoint vocabularies (unlike raw KL).

    Distributed shape: per-block (word, ca, cb) partial counts (one
    row per distinct word per block — the `vocab_topk` partial with a
    cohort split) merge in ``grouped_agg`` (auto-switching to the
    partitioned merge for 100-TB vocabularies; the vocabulary NEVER
    reaches the driver), the merged word table materializes once, a
    scalar-partials pass folds the two token totals, and a second pass
    over the same materialized table reduces each block to one partial
    JS sum with the totals captured by value. Only ≤ blocks scalar
    rows reach the driver in either pass. 0·log(0/m) terms are exactly
    0. Tokenization is single-space split with empties dropped
    (DuckDB ``string_split(text, ' ')`` parity)."""
    from .relational import grouped_agg

    a_lab, b_lab = group_a, group_b

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = df[group_col].isin([a_lab, b_lab])
        df = df.loc[m].reset_index(drop=True)
        ex = df[text_col].astype(str).str.split(" ").explode()
        keep = ((ex != "") & ex.notna()).to_numpy()
        words = ex.to_numpy()[keep]
        rows = ex.index.to_numpy()[keep]  # positional after reset_index
        isa = (df[group_col] == a_lab).to_numpy()[rows]
        g = (pd.DataFrame({"word": words, "a": isa.astype("int64")})
             .groupby("word", sort=False)["a"]
             .agg(["sum", "size"]).reset_index())
        return pd.DataFrame({
            "word": g["word"].to_numpy().astype(object),
            "ca": g["sum"].to_numpy().astype("int64"),
            "cb": (g["size"] - g["sum"]).to_numpy().astype("int64"),
        })

    wc = grouped_agg(
        ds.select_columns([text_col, group_col]).map_batches(
            partial, batch_format="pandas"),
        ["word"], {"ca": ("ca", "sum"), "cb": ("cb", "sum")},
        merge_partitions=merge_partitions,
    ).materialize()

    tot = grouped_agg(
        wc.map_batches(
            lambda d: d[["ca", "cb"]].assign(
                __k=np.zeros(len(d), dtype="int64")),
            batch_format="pandas"),
        ["__k"], {"na": ("ca", "sum"), "nb": ("cb", "sum")},
    ).to_pandas()
    if len(tot) == 0 or tot["na"].iloc[0] == 0 or tot["nb"].iloc[0] == 0:
        return rd.from_pandas(pd.DataFrame({
            "n_words": pd.Series([], dtype="int64"),
            "tokens_a": pd.Series([], dtype="int64"),
            "tokens_b": pd.Series([], dtype="int64"),
            "js": pd.Series([], dtype="float64"),
        }))
    na = float(tot["na"].iloc[0])
    nb = float(tot["nb"].iloc[0])

    def contrib(d: pd.DataFrame) -> pd.DataFrame:
        p = d["ca"].to_numpy(dtype="float64") / na
        q = d["cb"].to_numpy(dtype="float64") / nb
        m = 0.5 * (p + q)
        with np.errstate(divide="ignore", invalid="ignore"):
            tp = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0) / m),
                          0.0)
            tq = np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0) / m),
                          0.0)
        return pd.DataFrame({"js": [0.5 * float(tp.sum() + tq.sum())],
                             "nw": [np.int64(len(d))]})

    p = wc.map_batches(contrib, batch_format="pandas").to_pandas()
    return rd.from_pandas(pd.DataFrame({
        "n_words": [np.int64(p["nw"].sum())],
        "tokens_a": [np.int64(na)],
        "tokens_b": [np.int64(nb)],
        "js": [float(p["js"].sum())],
    }))


# Per-worker-process stage cache: these stages carry only cheap derived
# state (marker tables, pattern strings), so they run as plain TASKS with
# the instance built once per worker process — which outlives the actor
# pools Ray Data tears down after every execution, and skips the pool's
# spin-up latency (measured ~2 s on small inputs).
_PROC_STAGES: dict = {}


def _cached_stage(cls, kw: dict):
    key = (cls.__name__, tuple(sorted(kw.items())))

    def run(df: pd.DataFrame) -> pd.DataFrame:
        inst = _PROC_STAGES.get(key)
        if inst is None:
            inst = cls(**kw)
            _PROC_STAGES[key] = inst
        return inst(df)

    return run


def langid_stage(ds: rd.Dataset, **kw) -> rd.Dataset:
    return ds.map_batches(_cached_stage(LangId, kw), batch_format="pandas")


def token_stage(ds: rd.Dataset, **kw) -> rd.Dataset:
    return ds.map_batches(_cached_stage(TokenCounter, kw),
                          batch_format="pandas")


def _re2_token_count(s: pd.Series) -> pd.Series:
    """Whitespace-token count on Arrow's RE2 kernel — the SAME engine the
    DuckDB oracle uses, so both sides agree even on NBSP / ideographic
    spaces where python str.split() (Unicode \\s) diverges from RE2's
    ASCII \\s (see quality_features' note)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = pa.array(s.astype(str))
    return pd.Series(
        pc.count_substring_regex(arr, pattern=r"\S+").to_numpy()
        .astype("int64"),
        index=s.index,
    )


def greedy_pack_bins(ntok: np.ndarray, capacity: int) -> np.ndarray:
    """Greedy in-order sequence packing: walk docs in order, start a new
    bin whenever adding the next doc would overflow ``capacity``; a doc
    longer than ``capacity`` gets a bin of its own. Returns the bin id
    per doc.

    Vectorized by bin-jumps rather than per-doc Python: one prefix sum,
    then one ``searchsorted`` per BIN finds the largest prefix that still
    fits — O(#bins · log n) instead of O(n) interpreted steps (#bins ≈
    n·avg_tokens/capacity, typically 10-50× smaller than n). Equivalent
    to the per-doc recurrence ``fill+n > cap → new bin`` for all inputs
    (incl. zero-token docs and oversize docs, pinned by tests/test_pack).
    """
    n = len(ntok)
    bins = np.empty(n, dtype=np.int64)
    if n == 0:
        return bins
    cs = np.cumsum(ntok.astype(np.int64))
    start, b = 0, 0
    while start < n:
        base = cs[start - 1] if start else 0
        j = int(np.searchsorted(cs, base + capacity, side="right")) - 1
        if j < start:  # oversize doc: bin of its own
            j = start
        bins[start:j + 1] = b
        b += 1
        start = j + 1
    return bins


def pack_sequences(
    ds: rd.Dataset,
    capacity: int = 512,
    text_col: str = "text",
    id_col: str = "doc_id",
    group_col: str = "lang",
    num_partitions: int = 8,
) -> rd.Dataset:
    """Sequence packing for LLM training exports: concatenate documents
    in ``id_col`` order into token bins of ``capacity``, greedily and
    per ``group_col`` group, emitting ``(group, doc_id, n_tokens,
    seq_id)``. Token count runs on Arrow's RE2 ``\\S+`` kernel (DuckDB
    ``regexp_split_to_array(trim(text), '\\s+')`` parity on the same
    regex engine; empty text = 0).

    Packing is an ordered scan, so each group packs inside one partition
    task (`grouped_apply` co-locates groups; within a partition each
    group is sorted by id and packed with the vectorized
    :func:`greedy_pack_bins`). Scale note: seq_ids are per-group, and a
    group must fit one task — at 100 TB pack per (group, hash-shard) and
    namespace seq_id by shard; the grouped form here matches the global
    greedy SQL oracle at test scale.
    """
    from .relational import grouped_apply

    def count_tokens(df: pd.DataFrame) -> pd.DataFrame:
        nt = _re2_token_count(df[text_col])
        return pd.DataFrame({group_col: df[group_col],
                             id_col: df[id_col], "n_tokens": nt})

    tok = ds.map_batches(count_tokens, batch_format="pandas")

    def pack_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values([group_col, id_col], kind="mergesort")
        out = []
        for g, grp in part.groupby(group_col, sort=False):
            bins = greedy_pack_bins(grp["n_tokens"].to_numpy(), capacity)
            out.append(grp.assign(seq_id=bins))
        if not out:
            return pd.DataFrame({group_col: [], id_col: [],
                                 "n_tokens": pd.Series([], dtype="int64"),
                                 "seq_id": pd.Series([], dtype="int64")})
        return pd.concat(out, ignore_index=True)

    return grouped_apply(tok, [group_col], pack_part,
                         num_partitions=num_partitions)


def pack_payload_tokens(df: pd.DataFrame, text_col: str, id_col: str,
                        group_col: str,
                        tokens_col: str | None = None) -> pd.DataFrame:
    """:func:`pack_payloads`' map kernel: (group, id, n_tokens, text)
    per doc, n_tokens from ``tokens_col`` or counted here."""
    t = df[text_col].astype(str)
    nt = (df[tokens_col].astype("int64") if tokens_col
          else _re2_token_count(t))
    return pd.DataFrame({group_col: df[group_col], id_col: df[id_col],
                         "n_tokens": nt, text_col: t})


def pack_payload_part(part: pd.DataFrame, capacity: int, sep: str,
                      text_col: str, id_col: str,
                      group_col: str) -> pd.DataFrame:
    """:func:`pack_payloads`' reduce kernel over any set of whole groups:
    greedy bins per group in id order, one row per bin."""
    part = part.sort_values([group_col, id_col], kind="mergesort")
    out = []
    for g, grp in part.groupby(group_col, sort=False):
        bins = greedy_pack_bins(grp["n_tokens"].to_numpy(), capacity)
        grp = grp.assign(seq_id=bins)
        agg = grp.groupby("seq_id", sort=False).agg(
            n_docs=(id_col, "size"),
            seq_tokens=("n_tokens", "sum"),
            **{text_col: (text_col, sep.join)},
        ).reset_index()
        agg.insert(0, group_col, g)
        out.append(agg)
    if not out:
        return pd.DataFrame({
            group_col: [], "seq_id": pd.Series([], dtype="int64"),
            "n_docs": pd.Series([], dtype="int64"),
            "seq_tokens": pd.Series([], dtype="int64"),
            text_col: pd.Series([], dtype=object),
        })
    o = pd.concat(out, ignore_index=True)
    o["n_docs"] = o["n_docs"].astype("int64")
    o["seq_tokens"] = o["seq_tokens"].astype("int64")
    return o[[group_col, "seq_id", "n_docs", "seq_tokens", text_col]]


def pack_payloads(
    ds: rd.Dataset,
    capacity: int = 512,
    sep: str = "\n",
    text_col: str = "text",
    id_col: str = "doc_id",
    group_col: str = "lang",
    num_partitions: int = 8,
    tokens_col: str | None = None,
) -> rd.Dataset:
    """Materialize the packed training sequences: the same greedy
    per-group packing as :func:`pack_sequences`, but emitting one row
    per bin — ``(group, seq_id, n_docs, seq_tokens, text)`` with the
    member documents' texts joined by ``sep`` in ``id_col`` order.
    Same partitioning contract as pack_sequences (a group packs inside
    one task; shard + namespace at scale).

    ``tokens_col`` names a PRECOMPUTED per-doc token-count column to
    budget bins with (e.g. BPE counts from ``bpe_encode_counts``);
    default None counts whitespace tokens here."""
    from .relational import grouped_apply

    tok = ds.map_batches(
        partial(pack_payload_tokens, text_col=text_col, id_col=id_col,
                group_col=group_col, tokens_col=tokens_col),
        batch_format="pandas")
    return grouped_apply(
        tok, [group_col],
        partial(pack_payload_part, capacity=capacity, sep=sep,
                text_col=text_col, id_col=id_col, group_col=group_col),
        num_partitions=num_partitions)


def char_entropy(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Per-document character-distribution Shannon entropy (bits/char) —
    the classic gibberish/binary/encoded-blob filter signal: natural
    language sits ~3.5-4.5 bits, base64/random bytes push toward 6,
    single-char spam toward 0.

    Fully vectorized and shuffle-free: one string join per batch encoded
    to a UTF-32 buffer (one codepoint = one uint32 — count parity with
    DuckDB's character-wise ``string_split(text, '')``), doc ids
    repeated by char length, one lexsort, run-length boundaries give the
    per-(doc, char) counts, and a scatter-add accumulates each doc's
    -Σ p·log2 p. No per-row Python, no exchange."""

    def ent(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].astype(str)
        lens = texts.str.len().to_numpy().astype(np.int64)
        blob = "".join(texts.tolist())
        cps = np.frombuffer(blob.encode("utf-32-le"), dtype=np.uint32)
        doc = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        H = np.zeros(len(df), dtype=np.float64)
        if len(cps):
            order = np.lexsort((cps, doc))
            d, c = doc[order], cps[order]
            bnd = np.flatnonzero(
                np.r_[True, (d[1:] != d[:-1]) | (c[1:] != c[:-1])])
            runs = np.diff(np.r_[bnd, len(d)])
            rd_ = d[bnd]
            p = runs / lens[rd_]
            np.add.at(H, rd_, -p * np.log2(p))
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "n_chars": lens,
            "entropy": np.round(H, 6),
        })

    return ds.map_batches(ent, batch_format="pandas")


def pack_interleaved_part(t, capacity: int, group_col: str, id_col: str,
                          tokens_col: str, segments_col: str):
    """:func:`pack_interleaved`' kernel over any set of whole groups
    (an Arrow table in, one row per bin out)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    seg_type = t.schema.field(segments_col).type
    grp_type = t.schema.field(group_col).type
    if t.num_rows == 0:
        return pa.table({
            group_col: pa.array([], type=grp_type),
            "seq_id": pa.array([], type=pa.int64()),
            "n_docs": pa.array([], type=pa.int64()),
            "seq_tokens": pa.array([], type=pa.int64()),
            "n_media": pa.array([], type=pa.int64()),
            segments_col: pa.array([], type=seg_type),
        })
    t = t.sort_by([(group_col, "ascending"), (id_col, "ascending")])
    grp = t.column(group_col).to_numpy(zero_copy_only=False)
    ntok = t.column(tokens_col).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    n = len(grp)
    # greedy bins per contiguous group (groups are contiguous after
    # the sort; the loop is over GROUPS — split×lang scale — with
    # the vectorized bin-jump packer inside)
    gb = np.flatnonzero(np.r_[True, grp[1:] != grp[:-1]])
    seq = np.empty(n, dtype=np.int64)
    for s, e in zip(gb, np.r_[gb[1:], n]):
        seq[s:e] = greedy_pack_bins(ntok[s:e], capacity)
    new_bin = np.r_[True, (seq[1:] != seq[:-1])
                    | (grp[1:] != grp[:-1])]
    bin_start = np.flatnonzero(new_bin)
    row_bin = np.cumsum(new_bin) - 1
    nbins = len(bin_start)
    n_docs = np.diff(np.r_[bin_start, n]).astype(np.int64)
    seq_tokens = np.add.reduceat(ntok, bin_start)

    segs = t.column(segments_col)
    segs = (segs.combine_chunks() if isinstance(segs, pa.ChunkedArray)
            else segs)
    sizes = pc.list_value_length(segs).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(segs)
    flat = (flat.combine_chunks() if isinstance(flat, pa.ChunkedArray)
            else flat)
    # packed lists = SAME flat child, new offsets at bin boundaries
    offsets = np.zeros(nbins + 1, dtype=np.int64)
    np.cumsum(np.add.reduceat(sizes, bin_start), out=offsets[1:])
    packed = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), flat)
    kinds = flat.field("kind").to_numpy(zero_copy_only=False)
    bin_of_flat = row_bin[np.repeat(np.arange(n), sizes)]
    n_media = np.bincount(bin_of_flat[kinds == "media"],
                          minlength=nbins).astype(np.int64)
    starts = pa.array(bin_start, type=pa.int64())
    return pa.table({
        group_col: t.column(group_col).take(starts),
        "seq_id": pa.array(seq[bin_start]),
        "n_docs": pa.array(n_docs),
        "seq_tokens": pa.array(seq_tokens),
        "n_media": pa.array(n_media),
        segments_col: packed,
    })


def pack_interleaved(
    ds: rd.Dataset,
    capacity: int = 512,
    group_col: str = "lang",
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    segments_col: str = "segments",
    num_partitions: int = 8,
) -> rd.Dataset:
    """Multimodal sequence packing: the same greedy per-group packing as
    :func:`pack_payloads`, but each bin row carries the member docs'
    INTERLEAVED segments (text+media, document order preserved within
    and across docs) instead of joined text — the training-export shape
    for a text+media corpus. Emits one row per bin:
    ``(group, seq_id, n_docs, seq_tokens, n_media, segments)`` where
    ``segments`` is the concatenated list<struct<kind, text, media_ref,
    offset>> and ``n_media`` counts its media segments. Token budget is
    text tokens only (``tokens_col``, precomputed by
    ``interleaved_docs``); media segments ride free — callers charging a
    per-media token cost should fold it into ``tokens_col`` upstream.
    Same partitioning contract as pack_sequences (a group packs inside
    one task; shard + namespace at scale).

    Arrow-native: the stage runs ``batch_format="pyarrow"`` through
    ``grouped_apply_arrow``, and bin concatenation is pure offset
    arithmetic — the flattened segment child array is reused as the
    packed lists' values with new offsets at the bin boundaries, so no
    segment struct is ever materialized as a Python object (Ray's
    pandas codec cannot round-trip nested Arrow columns, and the old
    per-bin Python list concat was the pack stage's hot loop)."""
    from .relational import grouped_apply_arrow

    return grouped_apply_arrow(
        ds, [group_col],
        partial(pack_interleaved_part, capacity=capacity,
                group_col=group_col, id_col=id_col, tokens_col=tokens_col,
                segments_col=segments_col),
        num_partitions=num_partitions)


def _bpe_word_table(ds: rd.Dataset, text_col: str,
                    num_partitions: int = 8) -> rd.Dataset:
    """(word, wcount) over the corpus — the table BPE actually trains
    on (vocabulary-scale, not corpus-scale). Partial counts per block,
    hash-partitioned merge."""
    from .relational import grouped_agg

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        w = df[text_col].astype(str).str.split(" ").explode()
        w = w[(w != "") & w.notna()]
        c = w.groupby(w, sort=False).size()
        return pd.DataFrame({"word": c.index.astype(object),
                             "wcount": c.to_numpy().astype("int64")})

    per_block = ds.map_batches(explode, batch_format="pandas")
    return grouped_agg(per_block, ["word"], {"wcount": ("wcount", "sum")},
                       merge_partitions=num_partitions)


def _bpe_flatten(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """word strings → (flat symbol array, word index per symbol) with
    single-character initial symbols."""
    lens = np.fromiter((len(w) for w in words), dtype="int64",
                       count=len(words))
    flat = np.array([ch for w in words for ch in w], dtype=object)
    word_of = np.repeat(np.arange(len(words)), lens)
    return flat, word_of


def _bpe_pair_counts(flat: np.ndarray, word_of: np.ndarray,
                     wcount: np.ndarray) -> pd.DataFrame:
    """Weighted adjacent-pair counts over the flattened symbol table —
    counts every OCCURRENCE (so 'aaa' contributes two (a,a) pairs),
    matching the classic BPE trainer's statistics."""
    if len(flat) < 2:
        return pd.DataFrame({"left": [], "right": [],
                             "cnt": pd.Series([], dtype="int64")})
    same = word_of[:-1] == word_of[1:]
    l = flat[:-1][same]
    r = flat[1:][same]
    w = wcount[word_of[:-1][same]]
    g = (pd.DataFrame({"left": l, "right": r, "cnt": w})
         .groupby(["left", "right"], sort=False)["cnt"].sum()
         .reset_index())
    return g


def _bpe_apply_merge(flat: np.ndarray, word_of: np.ndarray,
                     left: str, right: str) -> tuple[np.ndarray, np.ndarray]:
    """Replace every left-to-right non-overlapping (left, right)
    occurrence with the merged symbol — vectorized: overlapping match
    runs resolve greedily by keeping even offsets within each run."""
    if len(flat) < 2:
        return flat, word_of
    m = np.zeros(len(flat), dtype=bool)
    m[:-1] = (flat[:-1] == left) & (flat[1:] == right) \
        & (word_of[:-1] == word_of[1:])
    if not m.any():
        return flat, word_of
    # overlap runs only matter for self-adjacent merges (left == right
    # or chains like (ab)(ba)): resolve greedy-leftmost by keeping
    # even positions within each consecutive-match run
    idx = np.flatnonzero(m)
    run_start = np.ones(len(idx), dtype=bool)
    run_start[1:] = idx[1:] != idx[:-1] + 1
    run_id = np.cumsum(run_start) - 1
    first_of_run = idx[np.flatnonzero(run_start)][run_id]
    keep = ((idx - first_of_run) % 2) == 0
    starts = idx[keep]
    merged = np.empty(len(flat), dtype=object)
    merged[:] = flat
    merged[starts] = left + right
    drop = np.zeros(len(flat), dtype=bool)
    drop[starts + 1] = True
    return merged[~drop], word_of[~drop]


def bpe_train_merges(
    ds: rd.Dataset,
    text_col: str = "text",
    num_merges: int = 8,
    num_partitions: int = 8,
) -> pd.DataFrame:
    """Distributed BPE-merge training: learn the top ``num_merges``
    byte-pair merges over the corpus — the tokenizer-training pass of
    an LLM data pipeline.

    Shape: ONE corpus exchange builds the (word, wcount) table (the
    classic reduction — BPE statistics depend only on the weighted
    vocabulary, which is orders smaller than the corpus); the word
    table materializes once, then each merge round is one streaming
    pass over it: per-block weighted pair counts (vectorized flat-array
    kernels, no per-word Python in the count), a driver-side argmax
    over the pair partials (pair table is vocabulary-bounded), and a
    broadcast merge application. Deterministic tiebreak: highest count,
    then lexicographic (left, right) — the same rule as the single-node
    reference in `bpe_reference`, so parity is exact, no floats
    anywhere. Symbols start as characters with no end-of-word marker
    (documented simplification; the merge algebra is unchanged).

    Returns the merge table (rank, left, right, pair_count) as pandas —
    merges are tokenizer artifacts, inherently driver-scale.
    """
    words = _bpe_word_table(ds, text_col,
                            num_partitions=num_partitions).materialize()

    def to_state(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "word": df["word"].astype(object),
            "wcount": df["wcount"].astype("int64"),
        })

    state = words.map_batches(to_state, batch_format="pandas") \
                 .materialize()
    merges = []
    for rank in range(num_merges):
        def count_block(df: pd.DataFrame) -> pd.DataFrame:
            w = df["word"].to_numpy()
            syms = df["__syms"].to_numpy() if "__syms" in df else None
            if syms is None:
                flat, word_of = _bpe_flatten(w)
            else:
                lens = np.fromiter((len(s) for s in syms), dtype="int64",
                                   count=len(syms))
                flat = np.concatenate([np.asarray(s, dtype=object)
                                       for s in syms]) \
                    if len(syms) else np.array([], dtype=object)
                word_of = np.repeat(np.arange(len(syms)), lens)
            return _bpe_pair_counts(flat, word_of,
                                    df["wcount"].to_numpy())

        parts = state.map_batches(count_block,
                                  batch_format="pandas").to_pandas()
        if parts.empty:
            break
        tot = parts.groupby(["left", "right"], sort=False)["cnt"] \
                   .sum().reset_index()
        tot = tot.sort_values(["cnt", "left", "right"],
                              ascending=[False, True, True],
                              kind="mergesort")
        best = tot.iloc[0]
        if int(best["cnt"]) < 2:
            break
        merges.append((rank, str(best["left"]), str(best["right"]),
                       int(best["cnt"])))
        bl, br = str(best["left"]), str(best["right"])

        def apply_block(df: pd.DataFrame, _l=bl, _r=br) -> pd.DataFrame:
            w = df["word"].to_numpy()
            syms = df["__syms"].to_numpy() if "__syms" in df else None
            if syms is None:
                flat, word_of = _bpe_flatten(w)
            else:
                lens = np.fromiter((len(s) for s in syms), dtype="int64",
                                   count=len(syms))
                flat = np.concatenate([np.asarray(s, dtype=object)
                                       for s in syms]) \
                    if len(syms) else np.array([], dtype=object)
                word_of = np.repeat(np.arange(len(syms)), lens)
            flat, word_of = _bpe_apply_merge(flat, word_of, _l, _r)
            n = len(df)
            out_syms = [[] for _ in range(n)]
            for s, wi in zip(flat, word_of):
                out_syms[wi].append(s)
            return pd.DataFrame({
                "word": df["word"].astype(object),
                "wcount": df["wcount"].astype("int64"),
                "__syms": pd.Series(out_syms, dtype=object),
            })

        state = state.map_batches(apply_block,
                                  batch_format="pandas").materialize()

    return pd.DataFrame(
        merges, columns=["rank", "left", "right", "pair_count"]
    ).astype({"rank": "int64", "pair_count": "int64"})


def bpe_encode_word_tokens(words: np.ndarray,
                           merges: Sequence[tuple[str, str]]) -> np.ndarray:
    """Token count per word after applying ``merges`` in rank order —
    the shared vectorized encode kernel (same flat-array merge the
    trainer uses, so train/encode semantics cannot diverge)."""
    if len(words) == 0:
        return np.zeros(0, dtype=np.int64)
    flat, word_of = _bpe_flatten(words)
    for left, right in merges:
        flat, word_of = _bpe_apply_merge(flat, word_of, left, right)
    return np.bincount(word_of, minlength=len(words)).astype("int64")


def bpe_encode_reference(word: str,
                         merges: Sequence[tuple[str, str]]) -> int:
    """Independent dict/loop single-word encoder (greedy left-to-right
    scan per merge, rank order — the classic BPE apply), used by the
    audit tests; shares no kernels with the vectorized path."""
    syms = list(word)
    for left, right in merges:
        out, i = [], 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == left \
                    and syms[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return len(syms)


def bpe_encode_counts(
    ds: rd.Dataset,
    merges: pd.DataFrame,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Distributed BPE ENCODE: apply a trained merge table
    (:func:`bpe_train_merges` output) to every document in ONE
    streaming pass, emitting (id, n_words, n_bpe_tokens) — the token
    accounting a packed training export needs to mean real tokenizer
    tokens instead of whitespace tokens.

    Scale shape: the merge table is a tokenizer artifact (driver-scale)
    broadcast once via ``ray.put``; each batch factorizes its words and
    encodes only the UNIQUE words (corpus word frequency follows Zipf,
    so the per-batch unique set is far smaller than the token stream),
    then scatters counts back per document with two bincounts — no
    exchange at all. The merge loop is bounded by the merge-table
    length with the vectorized flat-array kernel inside. Documents with
    zero words emit n_words = 0 (callers joining against a word-level
    oracle filter them)."""
    import ray

    from .relational import resolve_broadcast

    mlist = [(str(lt), str(rt))
             for lt, rt in zip(merges["left"], merges["right"])]
    refs = [ray.put(mlist)]

    def enc(df: pd.DataFrame) -> pd.DataFrame:
        m = resolve_broadcast(refs[0])
        n_words, n_tok = bpe_doc_token_counts(df[text_col], m)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "n_words": n_words,
            "n_bpe_tokens": n_tok,
        })

    return ds.map_batches(enc, batch_format="pandas")


def bpe_doc_token_counts(
    texts: pd.Series, merges: Sequence[tuple[str, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """(n_words, n_bpe_tokens) per text — the shared per-batch encode:
    factorize the batch's words, encode only the uniques, scatter back
    with two bincounts."""
    texts = texts.astype(str)
    splits = texts.str.split(" ")
    lens = splits.str.len().to_numpy().astype(np.int64)
    n = len(texts)
    if n:
        words_all = np.concatenate(
            [np.asarray(x, dtype=object) for x in splits])
    else:
        words_all = np.array([], dtype=object)
    doc_of = np.repeat(np.arange(n), lens)
    keep = words_all != ""
    words_all, doc_of = words_all[keep], doc_of[keep]
    codes, uniq = pd.factorize(words_all)
    utok = bpe_encode_word_tokens(np.asarray(uniq, dtype=object), merges)
    n_tok = np.bincount(doc_of, weights=utok[codes],
                        minlength=n).astype("int64") \
        if len(codes) else np.zeros(n, dtype=np.int64)
    n_words = np.bincount(doc_of, minlength=n).astype("int64")
    return n_words, n_tok


def bpe_reference(word_counts: pd.DataFrame,
                  num_merges: int = 8) -> pd.DataFrame:
    """Independent single-node classic BPE trainer (dict/loop form, no
    shared kernels with the distributed path) — the audit reference."""
    vocab = {tuple(w): int(c) for w, c in
             zip(word_counts["word"], word_counts["wcount"])}
    merges = []
    for rank in range(num_merges):
        counts: dict[tuple[str, str], int] = {}
        for syms, c in vocab.items():
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + c
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (bl, br), cnt = best
        if cnt < 2:
            break
        merges.append((rank, bl, br, cnt))
        new_vocab: dict[tuple, int] = {}
        for syms, c in vocab.items():
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == bl
                        and syms[i + 1] == br):
                    out.append(bl + br)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            key = tuple(out)
            new_vocab[key] = new_vocab.get(key, 0) + c
        vocab = new_vocab
    return pd.DataFrame(
        merges, columns=["rank", "left", "right", "pair_count"]
    ).astype({"rank": "int64", "pair_count": "int64"})


def mixture_sample(
    ds: rd.Dataset,
    key: str,
    id_col: str,
    total: int,
    alpha: float = 0.5,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Temperature-scaled corpus-mixture sampling: draw a deterministic
    sample of ~``total`` rows whose per-``key`` (source/language) counts
    follow the α-power recipe LM training mixes use — target share of
    group g ∝ n_g^α, so α=1 keeps natural proportions, α→0 flattens the
    mix toward uniform and up-weights low-resource groups (the standard
    multilingual-sampling trick; α≈0.3-0.7 in published recipes).

    Fully deterministic and parallelism-invariant: group targets come
    from exact counts (floor(round(total·share, 6)) — same float64
    arithmetic in SQL, so totals may undershoot ``total`` by < #groups,
    never overshoot); membership is the per-group smallest-``target_g``
    rows by Knuth-hashed id (ties impossible: (hash, id) is unique per
    group). Scale shape: the count pass is a partial-agg exchange of
    #groups rows; scoring is one vectorized map; each batch pre-truncates
    to its local per-group head so only candidate rows (≤ target_g per
    group per block) enter the single co-partitioning exchange.
    Nonnegative-id precondition as ``cap_per_group``
    (`relational.py:455-463`).
    """
    from .relational import grouped_agg, grouped_apply

    counts = grouped_agg(ds, [key], {"n": (id_col, "count")},
                         merge_partitions=None).to_pandas()
    w = counts["n"].to_numpy(dtype="float64") ** float(alpha)
    share = w / w.sum()
    targets = {
        k: int(np.floor(np.round(total * s, 6)))
        for k, s in zip(counts[key].tolist(), share.tolist())
    }

    def score_and_trim(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy().astype(np.uint64)
        h = ((ids % np.uint64(4294967296)) * np.uint64(2654435761)) \
            % np.uint64(4294967296)
        df = df.assign(samp_key=h.astype("int64"))
        df = df.sort_values(["samp_key", id_col], kind="mergesort")
        g = df.groupby(key, sort=False, observed=True)
        kept = [grp.head(targets.get(k, 0)) for k, grp in g]
        return (pd.concat(kept) if kept
                else df.iloc[0:0])

    def exact(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["samp_key", id_col], kind="mergesort")
        g = part.groupby(key, sort=False, observed=True)
        kept = [grp.head(targets.get(k, 0)) for k, grp in g]
        return pd.concat(kept) if kept else part.iloc[0:0]

    return grouped_apply(
        ds.map_batches(score_and_trim, batch_format="pandas"),
        [key], exact, num_partitions=num_partitions,
    )


def collocations(
    ds: rd.Dataset,
    k: int = 40,
    min_count: int = 5,
    text_col: str = "text",
    merge_partitions: int | None = 8,
    num_buckets: int = 16,
) -> rd.Dataset:
    """Top-k collocations (adjacent word bigrams) by pointwise mutual
    information — the phrase-mining pass a tokenizer/vocabulary builder
    runs over a training corpus.

    PMI is computed over the bigram distribution itself: with N = total
    bigrams, p(a,·) = (bigrams starting with a)/N, p(·,b) = (bigrams
    ending with b)/N, ``pmi = ln(c_ab · N / (c1(a) · c2(b)))`` — self-
    consistent denominators, reproducible in SQL without mixing token
    and bigram totals. Tokenization is single-space split with empties
    dropped (``vocab_topk`` parity); dropping empties keeps the
    surviving tokens adjacent, matching the list-slice zip the oracle
    uses.

    Dataflow: per-batch bigram partial counts (explode + same-doc mask +
    one groupby — only distinct-bigram rows leave a block), one
    ``grouped_agg`` merge (partitioned for corpus-scale bigram
    vocabularies), the two marginal tables derived FROM the reduced
    bigram table (never re-reading the corpus), bucketed joins for the
    vocabulary-scale marginals (correctly NOT broadcast — same
    discipline as tfidf), and the shared truncating ``topk`` for the
    final ordering. The ``min_count`` filter prunes the join input but
    the marginals are computed over ALL bigrams, so frequency floors
    don't distort the distribution."""
    from .relational import bucketed_hash_join, grouped_agg, topk

    def pairs_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df[text_col].astype(str).str.split(" ").explode()
        toks = toks[(toks != "") & toks.notna()]
        w = toks.to_numpy(dtype=object)
        if len(w) < 2:
            return pd.DataFrame({
                "w1": pd.Series([], dtype=object),
                "w2": pd.Series([], dtype=object),
                "cnt": pd.Series([], dtype="int64"),
            })
        doc = toks.index.to_numpy()
        same = doc[:-1] == doc[1:]
        g = (pd.DataFrame({"w1": w[:-1][same], "w2": w[1:][same]})
             .groupby(["w1", "w2"], sort=False).size()
             .reset_index(name="cnt"))
        g["cnt"] = g["cnt"].astype("int64")
        return g

    partials = ds.select_columns([text_col]).map_batches(
        pairs_partial, batch_format="pandas")
    big = grouped_agg(
        partials, ["w1", "w2"], {"c_ab": ("cnt", "sum")},
        merge_partitions=merge_partitions,
    ).materialize()
    n_total = float(big.sum("c_ab"))
    c1 = grouped_agg(big, ["w1"], {"c1": ("c_ab", "sum")},
                     merge_partitions=merge_partitions)
    c2 = grouped_agg(big, ["w2"], {"c2": ("c_ab", "sum")},
                     merge_partitions=merge_partitions)

    kept = big.map_batches(
        lambda df, _m=min_count: df[df["c_ab"] >= _m],
        batch_format="pandas",
    )
    joined = bucketed_hash_join(
        bucketed_hash_join(kept, c1, on="w1", num_buckets=num_buckets),
        c2, on="w2", num_buckets=num_buckets,
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        pmi = np.log(
            df["c_ab"].to_numpy(dtype="float64") * n_total
            / (df["c1"].to_numpy(dtype="float64")
               * df["c2"].to_numpy(dtype="float64"))
        )
        return pd.DataFrame({
            "w1": df["w1"], "w2": df["w2"],
            "c_ab": df["c_ab"].astype("int64"),
            "pmi": np.round(pmi, 6),
        })

    scored = joined.map_batches(score, batch_format="pandas")
    return topk(scored, ["pmi", "w1", "w2"], k,
                descending=[True, False, False])


def naive_bayes_classify(
    train: rd.Dataset,
    test: rd.Dataset,
    text_col: str = "text",
    label_col: str = "lang",
    id_col: str = "doc_id",
    merge_partitions: int = 4,
    num_buckets: int = 8,
    round_dp: int = 6,
) -> rd.Dataset:
    """Multinomial Naive Bayes text classification, trained and applied
    distributed — the classical supervised label-propagation step of a
    curation pipeline (predict language/domain/quality tier from token
    counts). Laplace-smoothed: ln P(w|ℓ) = ln((c(ℓ,w)+1)/(tot_ℓ+V)).

    Scale shape: the (label, word) likelihood table is VOCABULARY-scale
    and never reaches the driver — it pivots to one row per word with
    a log-prob column per label (labels are model constants, collected
    driver-side with priors/totals), bucket-joins the test token table
    by word (LEFT join — unseen words take the smoothing floor), and
    per-doc scores partial-sum merge. Scores round to ``round_dp``
    before the argmax on both engines (ties break label-ascending), so
    ln() reassociation cannot flip a prediction. Emits
    (id, pred_label)."""
    from .relational import (
        bucketed_hash_join,
        distinct,
        grouped_agg,
        grouped_apply,
    )

    def tokens(keep: str, doc_counts: bool = False):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame({
                    keep: pd.Series(dtype="int64" if not doc_counts
                                    else "category"),
                    "word": pd.Series(dtype="category"),
                    "cnt": pd.Series(dtype="int64")})
            t = df[[keep, text_col]].copy()
            t["word"] = t[text_col].astype(str).str.split(" ")
            t = t[[keep, "word"]].explode("word")
            t = t[(t["word"] != "") & t["word"].notna()]
            g = (t.groupby([keep, "word"], sort=False).size()
                 .reset_index(name="cnt"))
            g["cnt"] = g["cnt"].astype("int64")
            if doc_counts:
                # fold per-label DOC counts into the same pass (the
                # empty word is filtered from real tokens, so it is a
                # safe sentinel) — saves a second full read of train
                dc = (df.groupby(keep, sort=False).size()
                      .reset_index(name="cnt"))
                dc["word"] = ""
                dc["cnt"] = dc["cnt"].astype("int64")
                g = pd.concat([g, dc[g.columns]], ignore_index=True)
            return g
        return fn

    tt_all = grouped_agg(
        train.map_batches(tokens(label_col, doc_counts=True),
                          batch_format="pandas"),
        [label_col, "word"], {"c": ("cnt", "sum")},
        merge_partitions=merge_partitions,
    ).materialize()
    tt = tt_all.map_batches(lambda d: d[d["word"] != ""],
                            batch_format="pandas")

    stats = (grouped_agg(
        tt_all.map_batches(
            lambda d: d.assign(
                __tok=np.where(d["word"] != "", d["c"], 0),
                __doc=np.where(d["word"] == "", d["c"], 0)),
            batch_format="pandas"),
        [label_col],
        {"tot": ("__tok", "sum"), "n_docs": ("__doc", "sum")})
        .to_pandas().set_index(label_col))
    tot = stats["tot"]
    pri = stats["n_docs"].astype(float)
    vocab_v = float(distinct(tt, ["word"]).count())
    labels = sorted(tot.index)
    n_train = float(pri.sum())
    log_prior = {l: float(np.log(pri[l] / n_train)) for l in labels}
    denom = {l: float(tot[l]) + vocab_v for l in labels}
    floor = {l: float(np.log(1.0 / denom[l])) for l in labels}

    def pivot(part: pd.DataFrame) -> pd.DataFrame:
        w = part.pivot_table(index="word", columns=label_col,
                             values="c", aggfunc="sum")
        out = pd.DataFrame({"word": w.index})
        for l in labels:
            c = (w[l].to_numpy(dtype="float64")
                 if l in w.columns else np.zeros(len(w)))
            c = np.nan_to_num(c)
            out[f"__lp_{l}"] = np.log((c + 1.0) / denom[l])
        return out

    wide = grouped_apply(tt, ["word"], pivot,
                         num_partitions=num_buckets)

    ttoks = test.map_batches(tokens(id_col), batch_format="pandas")
    joined = bucketed_hash_join(ttoks, wide, on="word", how="left",
                                num_buckets=num_buckets)

    def partial_scores(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df["cnt"].to_numpy(dtype="float64")
        out = {id_col: df[id_col].astype("int64")}
        for l in labels:
            lp = df[f"__lp_{l}"].to_numpy(dtype="float64")
            lp = np.where(np.isnan(lp), floor[l], lp)
            out[f"__s_{l}"] = cnt * lp
        return pd.DataFrame(out)

    per_doc = grouped_agg(
        joined.map_batches(partial_scores, batch_format="pandas"),
        [id_col], {f"__s_{l}": (f"__s_{l}", "sum") for l in labels},
        merge_partitions=merge_partitions,
    )

    def decide(df: pd.DataFrame) -> pd.DataFrame:
        S = np.column_stack(
            [np.round(df[f"__s_{l}"].to_numpy(dtype="float64")
                      + log_prior[l], round_dp) for l in labels])
        # argmax with label-ascending tiebreak: labels are sorted and
        # np.argmax takes the FIRST maximum
        pick = np.argmax(S, axis=1)
        return pd.DataFrame({
            id_col: df[id_col].astype("int64"),
            "pred_" + label_col: np.array(labels, dtype=object)[pick],
        })

    return per_doc.map_batches(decide, batch_format="pandas")


def boolean_search(
    ds: rd.Dataset,
    terms: Sequence[str],
    text_col: str = "text",
    id_col: str = "doc_id",
    merge_partitions: int | None = None,
) -> rd.Dataset:
    """Conjunctive boolean retrieval (docs containing ALL query terms)
    via query-restricted postings — the exact-match companion to `bm25`.
    Scale shape: the postings explode is filtered to the k query terms
    INSIDE the batch (the inverted index is never materialized beyond
    them) and deduped per batch; a doc's text lives in one row, so the
    per-batch dedup is globally exact and the ONE ``grouped_agg``
    exchange carries ≤ k rows per matching doc. count == k is the
    intersection. Tokenization matches `vocab_topk` (single-space
    split, empties dropped)."""
    from .relational import grouped_agg

    terms = sorted(set(terms))
    k = len(terms)
    tset = frozenset(terms)

    def posts(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].astype(str).str.split(" ").rename("w")
        e = df[[id_col]].join(s).explode("w")
        e = e[e["w"].isin(tset)].drop_duplicates()
        if len(e) == 0:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "w": pd.Series(dtype="category")})
        return e

    hits = grouped_agg(
        ds.map_batches(posts, batch_format="pandas"),
        [id_col], {"n": ("w", "count")},
        merge_partitions=merge_partitions,
    )
    return hits.map_batches(
        lambda d: d.loc[d["n"] == k, [id_col]].astype("int64"),
        batch_format="pandas")


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro–Winkler similarity, rapidfuzz/DuckDB convention: Jaro with
    the standard floor(max/2)−1 match window and half-transposition
    count, Winkler prefix bonus (p=0.1, prefix ≤ 4) applied only when
    the Jaro score exceeds the 0.7 boost threshold. Pure-python exact
    reference — blocked matching calls it per CANDIDATE pair, never
    per corpus row."""
    if s1 == s2:
        return 1.0
    l1, l2 = len(s1), len(s2)
    if l1 == 0 or l2 == 0:
        return 0.0
    window = max(max(l1, l2) // 2 - 1, 0)
    f1 = [False] * l1
    f2 = [False] * l2
    m = 0
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(l2, i + window + 1)
        for j in range(lo, hi):
            if not f2[j] and s2[j] == ch:
                f1[i] = True
                f2[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    t = 0
    j = 0
    for i in range(l1):
        if f1[i]:
            while not f2[j]:
                j += 1
            if s1[i] != s2[j]:
                t += 1
            j += 1
    # rapidfuzz/DuckDB floor the half-transposition count (integer
    # t//2), unlike the textbook t/2 — measured against DuckDB on
    # odd-mismatch pairs
    jaro = (m / l1 + m / l2 + (m - t // 2) / m) / 3.0
    if jaro > 0.7:
        pre = 0
        for a, b in zip(s1[:4], s2[:4]):
            if a != b:
                break
            pre += 1
        jaro = jaro + pre * 0.1 * (1.0 - jaro)
    return jaro
