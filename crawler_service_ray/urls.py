"""URL canonicalization, hashing and priority.

Generalizes the reference's path normalization — extension extraction
(`/root/reference/crawlers/globus_base_preserved.py:157-169`, duplicated at
`crawlers/local_funcx.py:131-143`) and full-path construction
(`crawlers/globus_base_preserved.py:310-314`) — into a real URL
canonicalizer, required by the north rule (canonicalized URL hashes key the
seen set).

Two implementations of the SAME spec:
  * ``canonicalize_url`` — pure Python, used by the reference oracle.
  * ``canonicalize_arrow`` — Arrow compute kernels, used by the crawl's
    link canonicalization (``stages/outlinks.py``).
Property tests assert they agree (tests/test_urls.py).

Canonical form:
  scheme lowercased (default ``http`` when missing), host lowercased,
  default ports stripped (``:80`` http / ``:443`` https), fragment dropped,
  repeated ``/`` in the path collapsed, trailing ``/`` stripped (root is
  ``scheme://host`` with no slash), ``utm_*`` query params dropped, empty
  query dropped.

Hashing uses ``pandas.util.hash_array`` (SipHash-1-3 with a fixed key):
deterministic across processes — the reference's ``uuid4`` ids
(``application.py:107``) are replaced by content-derived hashes so runs are
reproducible (an equivalence requirement).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_DEFAULT_PORT = {"http": ":80", "https": ":443"}

__all__ = [
    "canonicalize_url",
    "hash_urls",
    "host_of",
    "hosts_of",
    "host_partitions",
    "priority_of",
    "priorities_of",
    "priorities_from_hashes",
]


def _canon_path_query(pathq: str) -> str:
    """Canonicalize the '/path?query' part (input without leading host)."""
    if "?" in pathq:
        path, _, query = pathq.partition("?")
    else:
        path, query = pathq, ""
    # collapse duplicate slashes
    while "//" in path:
        path = path.replace("//", "/")
    # strip trailing slash (root becomes empty path)
    path = path.rstrip("/")
    if path and not path.startswith("/"):
        path = "/" + path
    # drop utm_* params
    if query:
        kept = [p for p in query.split("&") if p and not p.startswith("utm_")]
        query = "&".join(kept)
    return path + (("?" + query) if query else "")


def canonicalize_url(url: str) -> str:
    """Pure-Python canonicalizer (oracle-side ground truth)."""
    u = url.strip()
    u = u.split("#", 1)[0]
    if "://" in u:
        scheme, _, rest = u.partition("://")
        scheme = scheme.lower()
    else:
        scheme, rest = "http", u
    if "/" in rest:
        hostport, _, pathq = rest.partition("/")
        pathq = "/" + pathq
    else:
        hostport, pathq = rest, ""
    host = hostport.lower()
    dp = _DEFAULT_PORT.get(scheme)
    if dp and host.endswith(dp):
        host = host[: -len(dp)]
    return f"{scheme}://{host}{_canon_path_query(pathq)}"


def canonicalize_arrow(arr) -> "pa.Array":
    """Vectorized canonicalizer on Arrow compute kernels (C, RE2) —
    allocation-light and contention-free compared to pandas object
    strings (measured: canonicalization was 1/3 of crawl CPU and scaled
    badly past 16 workers on object churn). Input: pa.Array/ChunkedArray
    of strings (or anything pa.array accepts); output: pa.StringArray.
    Property-tested equal to ``canonicalize_url`` (tests/test_urls.py).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(np.asarray(arr, dtype=object), type=pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    s = pc.utf8_trim_whitespace(arr)
    # drop fragment
    s = pc.list_element(pc.split_pattern(s, "#", max_splits=1), 0)
    # scheme
    parts = pc.split_pattern(s, "://", max_splits=1)
    has_scheme = pc.equal(pc.list_value_length(parts), 2)
    first = pc.list_element(parts, 0)
    scheme = pc.if_else(has_scheme, pc.utf8_lower(first), "http")
    # rest = after ://, else whole
    rest = pc.if_else(
        has_scheme,
        pc.replace_substring_regex(s, r"^[^#]*?://", "", max_replacements=1),
        s,
    )
    # hostport = up to the first '/', pathq = the rest (regex removal is
    # total — no per-row branching needed; (?s) so '.' spans anything)
    hostport = pc.list_element(pc.split_pattern(rest, "/", max_splits=1), 0)
    pathq = pc.replace_substring_regex(rest, r"(?s)^[^/]*", "",
                                       max_replacements=1)
    host = pc.utf8_lower(hostport)
    # strip default port for the matching scheme
    h80 = pc.replace_substring_regex(host, r":80$", "")
    h443 = pc.replace_substring_regex(host, r":443$", "")
    host = pc.if_else(
        pc.equal(scheme, "http"), h80,
        pc.if_else(pc.equal(scheme, "https"), h443, host),
    )
    # split query off the path
    path = pc.replace_substring_regex(pathq, r"(?s)\?.*$", "",
                                      max_replacements=1)
    qs = pc.extract_regex(pathq, r"(?s)\?(?P<q>.*)$")
    query = pc.fill_null(pc.struct_field(qs, "q"), "")
    # collapse duplicate slashes, strip trailing slash
    path = pc.replace_substring_regex(path, r"/{2,}", "/")
    path = pc.replace_substring_regex(path, r"/+$", "")
    # drop utm_* params; tidy separators
    query = pc.replace_substring_regex(query, r"(^|&)utm_[^&]*", "")
    query = pc.replace_substring_regex(query, r"^&+", "")
    out = pc.binary_join_element_wise(
        scheme, "://", host, path,
        pc.if_else(
            pc.not_equal(query, ""),
            pc.binary_join_element_wise("?", query, ""),
            "",
        ),
        "",
    )
    return out


_HASH_KEY = "cs-ray-url-hash-"  # 16 bytes, fixed -> deterministic across runs
_HASH_KEY2 = "cs-ray-url-hashB"  # independent key for collision guarding


def hash_urls(urls) -> np.ndarray:
    """uint64 SipHash of (already canonical) URL strings, vectorized."""
    arr = np.asarray(urls, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(arr, hash_key=_HASH_KEY, categorize=False)


def hash_urls2(urls) -> np.ndarray:
    """Second independent uint64 hash (fetch-index collision guard: a
    false hit needs a simultaneous 128-bit collision)."""
    arr = np.asarray(urls, dtype=object)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(arr, hash_key=_HASH_KEY2, categorize=False)


def host_of(url: str) -> str:
    """Host of a canonical URL."""
    rest = url.partition("://")[2]
    return rest.split("/", 1)[0]


def hosts_of(urls) -> np.ndarray:
    s = pd.Series(np.asarray(urls, dtype=object)).astype(str)
    rest = s.str.partition("://")[2]
    return rest.str.split("/", n=1).str[0].to_numpy(dtype=object)


def host_partitions(hosts, num_parts: int) -> np.ndarray:
    """The run-wide frontier partition key: ``hash(host) % num_parts``."""
    return (hash_urls(hosts) % np.uint64(num_parts)).astype(np.int64)


def flaky_mask(hashes: np.ndarray, every: int) -> np.ndarray:
    """Deterministic transient-failure mask: a URL is flaky iff a mix of
    its hash ≡ 0 (mod every). Models the reference's fetch failures
    (`/root/reference/crawlers/globus_base_preserved.py:283-301` retries a
    failed listing) without any nondeterminism; 0 disables."""
    if every <= 0:
        return np.zeros(len(hashes), dtype=bool)
    mixed = (hashes.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return (mixed % np.uint64(every)) == 0


def is_flaky(url: str, every: int) -> bool:
    return bool(flaky_mask(hash_urls(np.array([url], dtype=object)), every)[0])


def priority_of(url: str) -> np.float32:
    """Frontier priority — a pure function of the canonical URL.

    Deliberately depth-independent so that whichever parent discovers a URL
    first (a per-epoch race inside the seen shards) cannot change its
    priority: crawl order stays deterministic (SURVEY.md §7.5). Seeds carry
    explicit priority 1.0 which dominates (hash-derived values are < 1.0).
    """
    return priorities_of(np.array([url], dtype=object))[0]


def priorities_of(urls) -> np.ndarray:
    return priorities_from_hashes(hash_urls(urls))


def priorities_from_hashes(h: np.ndarray) -> np.ndarray:
    """``priorities_of`` for URLs whose ``hash_urls`` is already known."""
    return ((h >> np.uint64(16)) & np.uint64(0xFFFF)).astype(np.float64).astype(
        np.float32
    ) / np.float32(65536.0)
