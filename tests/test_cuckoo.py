import numpy as np

from crawler_service_ray.state.cuckoo import CuckooFilter


def _items(n, seed=7):
    return np.random.default_rng(seed).integers(1, 2**63, size=n, dtype=np.uint64)


def test_no_false_negatives():
    f = CuckooFilter(20_000)
    items = _items(15_000)
    for h in items:
        f.insert(int(h))
    assert f.maybe_contains_many(items).all()


def test_false_positive_rate_bounded():
    f = CuckooFilter(20_000)
    for h in _items(15_000):
        f.insert(int(h))
    others = _items(50_000, seed=8)
    assert f.maybe_contains_many(others).mean() < 0.02


def test_overflow_to_bloom_keeps_no_false_negatives():
    # force overflow: capacity far below inserts
    f = CuckooFilter(64)
    items = _items(2_000, seed=9)
    for h in items:
        f.insert(int(h))
    assert f.n_bloom > 0, "expected bloom fallback to engage"
    assert f.maybe_contains_many(items).all()


def test_deterministic_insert_order_independent_membership():
    items = _items(5_000, seed=11)
    f1, f2 = CuckooFilter(8_000), CuckooFilter(8_000)
    for h in items:
        f1.insert(int(h))
    for h in items[::-1]:
        f2.insert(int(h))
    assert f1.maybe_contains_many(items).all()
    assert f2.maybe_contains_many(items).all()
