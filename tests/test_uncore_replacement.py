"""Tests for the cache replacement policies."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.uncore.cache import Cache
from repro.uncore.replacement import LRUReplacement, PolicyCache, SRRIP


def make_cache(policy, sets=4, ways=2):
    return PolicyCache("t", size_bytes=sets * ways * 64, ways=ways,
                       policy=policy)


def _line(line):
    return None if line is None else (line.block, line.prefetched, line.dirty)


def _sets(cache):
    """Every set's lines, in dict order."""
    return [[_line(line) for line in cache_set.values()]
            for cache_set in cache._sets]


#: ``(operation, block, prefetched, dirty)``; a lookup ignores the flags.
CACHE_OPS = st.lists(
    st.tuples(st.sampled_from(["lookup", "insert"]), st.integers(0, 40),
              st.booleans(), st.booleans()),
    min_size=1, max_size=200,
)


class TestLRUPolicy:
    @settings(max_examples=80, deadline=None)
    @given(sets=st.integers(1, 4), ways=st.integers(1, 4), ops=CACHE_OPS)
    @example(sets=4, ways=2, ops=[("insert", 0, False, False),
                                  ("insert", 4, False, False),
                                  ("lookup", 0, False, False),
                                  ("insert", 8, False, False)])
    def test_matches_base_cache_behaviour(self, sets, ways, ops):
        """LRU's victim is the set's first key: under any stream of lookups
        and inserts, a ``PolicyCache`` under LRU returns the same lines and
        victims as a plain ``Cache`` of its geometry, and holds the same
        lines in the same order in every set."""
        policy_cache = make_cache(LRUReplacement(), sets=sets, ways=ways)
        cache = Cache("t", size_bytes=sets * ways * 64, ways=ways)
        for operation, block, prefetched, dirty in ops:
            if operation == "lookup":
                results = [c.lookup(block) for c in (policy_cache, cache)]
            else:
                results = [c.insert(block, prefetched=prefetched, dirty=dirty)
                           for c in (policy_cache, cache)]
            assert _line(results[0]) == _line(results[1])
            assert _sets(policy_cache) == _sets(cache)


class TestSRRIP:
    def test_insert_gets_long_rrpv(self):
        policy = SRRIP(max_rrpv=3)
        policy.on_insert(0, 10)
        assert policy._rrpv[10] == 2

    def test_hit_promotes_to_zero(self):
        policy = SRRIP()
        policy.on_insert(0, 10)
        policy.on_hit(0, 10)
        assert policy._rrpv[10] == 0

    def test_victim_is_distant_line(self):
        cache = make_cache(SRRIP())
        cache.insert(0)
        cache.lookup(0)       # promote block 0 (RRPV -> 0)
        cache.insert(4)       # RRPV 2
        victim = cache.insert(8)
        assert victim.block == 4

    def test_aging_finds_victim(self):
        policy = SRRIP(max_rrpv=3)
        cache = make_cache(policy)
        cache.insert(0)
        cache.lookup(0)
        cache.insert(4)
        cache.lookup(4)
        # Both promoted: aging loop must still terminate and pick one.
        victim = cache.insert(8)
        assert victim.block in (0, 4)

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError):
            SRRIP(max_rrpv=0)

    def test_scan_resistance(self):
        """SRRIP keeps a reused line through a one-shot scan; LRU loses it."""

        def hits_after_scan(policy):
            cache = make_cache(policy, sets=1, ways=4)
            hot = 0
            for _ in range(3):
                if cache.lookup(hot) is None:
                    cache.insert(hot)
            for block in range(1, 8):   # scan through the set
                if cache.lookup(block) is None:
                    cache.insert(block)
            return cache.lookup(hot) is not None

        assert hits_after_scan(SRRIP())
        assert not hits_after_scan(LRUReplacement())


class TestPolicyCacheInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["lru", "srrip"]),
           st.lists(st.integers(min_value=0, max_value=120), min_size=1,
                    max_size=250))
    def test_associativity_never_exceeded(self, policy_name, blocks):
        policy = {
            "lru": LRUReplacement(),
            "srrip": SRRIP(),
        }[policy_name]
        cache = make_cache(policy, sets=4, ways=2)
        for block in blocks:
            if cache.lookup(block) is None:
                cache.insert(block)
        for cache_set in cache._sets:
            assert len(cache_set) <= cache.ways

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=120))
    def test_inserted_block_resident(self, blocks):
        cache = make_cache(SRRIP(), sets=2, ways=4)
        for block in blocks:
            if cache.lookup(block) is None:
                cache.insert(block)
            assert cache.contains(block)
