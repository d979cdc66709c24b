import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crawler_service_ray.urls import (
    canonicalize_arrow,
    canonicalize_url,
    hash_urls,
    host_of,
    hosts_of,
    priorities_of,
    priority_of,
)

CASES = {
    "http://H0.Test/p/3#frag": "http://h0.test/p/3",
    "h1.test/p/2/": "http://h1.test/p/2",
    "https://h2.test:443//a//b/?utm_source=x&q=1": "https://h2.test/a/b?q=1",
    "http://h3.test:80/p/5?utm_campaign=z": "http://h3.test/p/5",
    "http://h4.test": "http://h4.test",
    "http://h4.test/": "http://h4.test",
    "  http://h5.test/x ": "http://h5.test/x",
    "HTTPS://h6.TEST/A/B": "https://h6.test/A/B",  # path case preserved
}


def test_canonical_cases():
    for raw, want in CASES.items():
        assert canonicalize_url(raw) == want


def test_vectorized_matches_pure_on_cases():
    raws = np.array(list(CASES), dtype=object)
    assert canonicalize_arrow(raws).to_pylist() == [
        canonicalize_url(r) for r in raws]


def test_idempotent():
    for raw in CASES:
        c = canonicalize_url(raw)
        assert canonicalize_url(c) == c


url_st = st.builds(
    lambda scheme, host, port, path, frag, utm: (
        f"{scheme}{host}{port}{path}{frag}{utm}"
    ),
    scheme=st.sampled_from(["http://", "https://", "", "HTTP://"]),
    host=st.from_regex(r"[A-Za-z][A-Za-z0-9.-]{0,12}", fullmatch=True),
    port=st.sampled_from(["", ":80", ":443", ":8080"]),
    path=st.from_regex(r"(/[A-Za-z0-9._~-]{0,6}){0,4}/?", fullmatch=True),
    frag=st.sampled_from(["", "#x", "#a/b"]),
    utm=st.sampled_from(["", "?utm_source=a", "?q=1&utm_x=2", "?a=1&b=2"]),
)


@given(st.lists(url_st, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_vectorized_matches_pure_property(urls):
    got = canonicalize_arrow(np.array(urls, dtype=object)).to_pylist()
    want = [canonicalize_url(u) for u in urls]
    assert got == want


def test_hash_deterministic_and_vectorized():
    urls = np.array(["http://a.test/1", "http://b.test/2"], dtype=object)
    h = hash_urls(urls)
    assert h.dtype == np.uint64
    assert hash_urls(urls[:1])[0] == h[0]
    assert list(hash_urls(urls)) == list(h)


def test_priority_pure_function_of_url():
    u = "http://a.test/1"
    p = priority_of(u)
    assert 0.0 <= float(p) < 1.0
    assert priorities_of(np.array([u, u], dtype=object)).tolist() == [p, p]


def test_hosts():
    assert host_of("http://a.test/x/y") == "a.test"
    assert host_of("http://a.test") == "a.test"
    assert list(hosts_of(np.array(["http://a.test/x"], dtype=object))) == ["a.test"]
