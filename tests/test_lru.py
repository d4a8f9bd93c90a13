"""The bounded LRU mapping behind every module-level cache."""

import pytest

from repro.lru import LRUCache


def _filled(bound, count):
    cache = LRUCache(bound)
    for key in range(count):
        cache.put(key, f"value-{key}")
    return cache


class TestLRUCache:
    def test_cache_is_bounded_and_evicts_lru(self):
        cache = _filled(4, 7)
        assert len(cache) == 4 == cache.bound
        # The three oldest entries were evicted, the newest four remain.
        for key in range(3):
            assert key not in cache
            assert cache.get(key) is None
        for key in range(3, 7):
            assert cache.get(key) == f"value-{key}"

    def test_get_refreshes_recency(self):
        cache = _filled(3, 3)
        assert cache.get(0) == "value-0"  # 0 is now the most recent
        cache.put(3, "value-3")
        assert 1 not in cache
        assert 0 in cache and 2 in cache and 3 in cache

    def test_put_refreshes_recency(self):
        cache = _filled(3, 3)
        cache.put(0, "again")
        cache.put(3, "value-3")
        assert 1 not in cache
        assert cache.get(0) == "again"

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            LRUCache(0)
        with pytest.raises(ValueError, match="at least 1"):
            LRUCache(-3)
