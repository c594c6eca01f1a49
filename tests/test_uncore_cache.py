"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uncore.cache import Cache


class TestGeometry:
    def test_set_count(self):
        cache = Cache("L1", size_bytes=32 * 1024, ways=8, block_bytes=64)
        assert cache.num_sets == 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=1000, ways=8, block_bytes=64)
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=0, ways=8)


class TestLookupInsert:
    def make(self):
        # 4 sets × 2 ways.
        return Cache("t", size_bytes=8 * 64, ways=2, block_bytes=64)

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.lookup(5) is None
        cache.insert(5)
        line = cache.lookup(5)
        assert line is not None and line.block == 5

    def test_contains_does_not_count(self):
        cache = self.make()
        cache.insert(5)
        assert cache.contains(5)
        assert not cache.contains(6)
        # Nor does it touch recency: block 5 stays its set's LRU line.
        cache.insert(1)
        cache.contains(5)
        assert cache.insert(9).block == 5

    def test_lru_eviction_order(self):
        cache = self.make()
        # Blocks 0, 4, 8 map to set 0 (4 sets).
        cache.insert(0)
        cache.insert(4)
        cache.lookup(0)  # refresh 0: now 4 is LRU
        victim = cache.insert(8)
        assert victim is not None and victim.block == 4
        assert cache.contains(0) and cache.contains(8)

    def test_reinsert_refreshes_in_place(self):
        cache = self.make()
        cache.insert(0)
        cache.insert(4)
        assert cache.insert(0) is None  # refresh, no eviction
        victim = cache.insert(8)
        assert victim.block == 4

    def test_dirty_preserved_on_reinsert(self):
        cache = self.make()
        cache.insert(0, dirty=True)
        cache.insert(0, dirty=False)
        assert cache.lookup(0).dirty

    def test_prefetched_and_used_flags(self):
        cache = self.make()
        cache.insert(3, prefetched=True)
        line = cache.lookup(3)
        assert line.prefetched


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                    max_size=300))
    def test_sets_never_exceed_associativity(self, blocks):
        cache = Cache("p", size_bytes=16 * 64, ways=4, block_bytes=64)
        for block in blocks:
            if cache.lookup(block) is None:
                cache.insert(block)
        for cache_set in cache._sets:
            assert len(cache_set) <= cache.ways

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=200))
    def test_most_recent_block_always_resident(self, blocks):
        cache = Cache("p", size_bytes=8 * 64, ways=2, block_bytes=64)
        for block in blocks:
            if cache.lookup(block) is None:
                cache.insert(block)
            assert cache.contains(block)
