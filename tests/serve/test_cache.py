"""EmbeddingCache: LRU bounds, exact-float storage, invalidation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import EmbeddingCache

SETTINGS = dict(max_examples=50, deadline=None)


class TestBasics:
    def test_miss_then_hit(self):
        cache = EmbeddingCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1.25)
        assert cache.get("a") == 1.25
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            EmbeddingCache(capacity=0)

    def test_exact_float64_roundtrip(self):
        # The bitwise contract: what went in comes back, bit for bit.
        cache = EmbeddingCache()
        value = float(np.float64(0.1) + np.float64(1e-17))
        cache.put("k", value)
        got = cache.get("k")
        assert np.float64(got).tobytes() == np.float64(value).tobytes()

    def test_contains_is_stats_free(self):
        cache = EmbeddingCache()
        cache.put("a", 1.0)
        assert "a" in cache and "b" not in cache
        assert cache.hits == 0 and cache.misses == 0

    def test_clear_counts_invalidations(self):
        cache = EmbeddingCache()
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_repr_and_stats(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("a", 1.0)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats["size"] == 1 and stats["capacity"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert "EmbeddingCache" in repr(cache)


class TestLru:
    def test_eviction_order_is_least_recently_used(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0  # refresh a; b is now LRU
        cache.put("c", 3.0)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        cache.put("a", 1.5)  # overwrite refreshes, evicts b next
        cache.put("c", 3.0)
        assert "a" in cache and "b" not in cache
        assert cache.get("a") == 1.5

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60),
        capacity=st.integers(min_value=1, max_value=5),
    )
    @settings(**SETTINGS)
    def test_size_never_exceeds_capacity(self, keys, capacity):
        cache = EmbeddingCache(capacity=capacity)
        for i, key in enumerate(keys):
            cache.put(key, float(i))
            assert len(cache) <= capacity


class TestInvalidation:
    def test_stale_versions_dropped_live_kept(self):
        cache = EmbeddingCache()
        cache.put(("d1", 1), 0.5)
        cache.put(("d2", 1), 0.6)
        cache.put(("d1", 2), 0.7)
        removed = cache.invalidate_stale(live_versions=[2])
        assert removed == 2
        assert ("d1", 2) in cache
        assert ("d1", 1) not in cache and ("d2", 1) not in cache
        assert cache.invalidations == 2

    def test_bare_digest_keys_always_dropped(self):
        # A key without a version names no model, so any publish
        # drops it.
        cache = EmbeddingCache()
        cache.put("bare-digest", 0.5)
        cache.put(("d", 1), 0.6)
        assert cache.invalidate_stale(live_versions=[1]) == 1
        assert "bare-digest" not in cache and ("d", 1) in cache

    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 6)),
            min_size=0,
            max_size=40,
        ),
        live=st.sets(st.integers(1, 6), max_size=6),
    )
    @settings(**SETTINGS)
    def test_no_stale_entry_survives(self, entries, live):
        cache = EmbeddingCache(capacity=64)
        for digest, version in entries:
            cache.put((f"d{digest}", version), float(version))
        cache.invalidate_stale(live)
        for key in list(cache._entries):
            assert key[1] in live
