"""Tests for the three-level cache hierarchy with prefetching."""

import dataclasses

import pytest

from repro.prefetch.base import Prefetcher
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig
from repro.workloads.trace import BLOCK_BYTES


SMALL = HierarchyConfig(
    l1_size_bytes=4 * 64 * 2,      # 2 sets × 4 ways
    l1_ways=4,
    l2_size_bytes=8 * 64 * 4,      # 4 sets × 8 ways
    l2_ways=8,
    llc_size_bytes=16 * 64 * 8,
    llc_ways=16,
    dram_latency=200.0,
)

#: A one-way L1 over a one-set, two-way L2: each new block a load brings in
#: evicts the L2's LRU line once two lines are resident.
EVICTING = dataclasses.replace(
    SMALL, l1_size_bytes=64, l1_ways=1, l2_size_bytes=2 * 64, l2_ways=2
)


class ScriptedPrefetcher(Prefetcher):
    """Returns a fixed list of blocks on every observation."""

    name = "scripted"

    def __init__(self, targets):
        self.targets = list(targets)
        self.observations = []

    def observe(self, pc, block, cycle, hit):
        self.observations.append((pc, block, hit))
        return list(self.targets)


def addr(block):
    return block * BLOCK_BYTES


class TestDemandPath:
    def test_l1_hit_latency(self):
        hierarchy = CacheHierarchy(SMALL)
        hierarchy.load(0, addr(1), 0.0)
        ready = hierarchy.load(0, addr(1), 1000.0)
        assert ready == pytest.approx(1000.0 + SMALL.l1_latency)

    def test_cold_miss_goes_to_dram(self):
        hierarchy = CacheHierarchy(SMALL)
        ready = hierarchy.load(0, addr(1), 0.0)
        expected = (
            SMALL.l1_latency + SMALL.l2_latency + SMALL.llc_latency
            + SMALL.dram_latency
        )
        assert ready == pytest.approx(expected)
        assert hierarchy.stats.dram_demand_fills == 1

    def test_l2_hit_after_fill(self):
        hierarchy = CacheHierarchy(SMALL)
        hierarchy.load(0, addr(1), 0.0)
        # Evict from tiny L1 by filling its set, then re-access: L2 hit.
        l1_sets = hierarchy.l1.num_sets
        for i in range(1, 6):
            hierarchy.load(0, addr(1 + i * l1_sets), 1000.0 * i)
        ready = hierarchy.load(0, addr(1), 100000.0)
        assert ready == pytest.approx(
            100000.0 + SMALL.l1_latency + SMALL.l2_latency
        )

    def test_store_is_nonblocking(self):
        hierarchy = CacheHierarchy(SMALL)
        ready = hierarchy.store(0, addr(9), 50.0)
        assert ready == pytest.approx(50.0 + SMALL.l1_latency)
        assert hierarchy.stats.stores == 1

    def test_counters(self):
        hierarchy = CacheHierarchy(SMALL)
        hierarchy.load(0, addr(1), 0.0)
        hierarchy.load(0, addr(1), 10.0)
        assert hierarchy.stats.loads == 2
        assert hierarchy.stats.l2_demand_accesses == 1  # second was an L1 hit


class TestPrefetchClassification:
    def test_timely_prefetch(self):
        prefetcher = ScriptedPrefetcher([5])
        hierarchy = CacheHierarchy(SMALL, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)          # trains, prefetches block 5
        ready = hierarchy.load(0, addr(5), 10000.0)  # long after fill
        assert hierarchy.stats.prefetch.issued == 1
        assert hierarchy.stats.prefetch.timely == 1
        assert hierarchy.stats.prefetch.late == 0
        # Timely: served at L2 latency, not DRAM.
        assert ready == pytest.approx(10000.0 + SMALL.l1_latency + SMALL.l2_latency)

    def test_late_prefetch_merges(self):
        prefetcher = ScriptedPrefetcher([5])
        hierarchy = CacheHierarchy(SMALL, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        ready = hierarchy.load(0, addr(5), 100.0)  # demand before fill returns
        assert hierarchy.stats.prefetch.late == 1
        # Saved part of the DRAM latency relative to a fresh miss at t=100.
        fresh = SMALL.l1_latency + SMALL.l2_latency + SMALL.llc_latency + SMALL.dram_latency
        assert ready < 100.0 + fresh

    def test_wrong_prefetch_counted_at_finalize(self):
        prefetcher = ScriptedPrefetcher([99])
        hierarchy = CacheHierarchy(SMALL, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        hierarchy.finalize()
        assert hierarchy.stats.prefetch.wrong == 1

    @staticmethod
    def prefetch_block_5_once():
        """Load block 1, whose L1 miss prefetches block 5 (and nothing
        after), into an L2 small enough to evict."""
        prefetcher = ScriptedPrefetcher([5])
        hierarchy = CacheHierarchy(EVICTING, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        prefetcher.targets.clear()
        assert hierarchy.stats.prefetch.issued == 1
        return hierarchy

    def test_timely_prefetch_is_not_wrong_at_finalize(self):
        hierarchy = self.prefetch_block_5_once()
        hierarchy.load(0, addr(5), 10000.0)  # the fill landed: timely
        hierarchy.finalize()
        assert hierarchy.l2.contains(5)
        assert hierarchy.stats.prefetch.timely == 1
        assert hierarchy.stats.prefetch.wrong == 0

    def test_timely_prefetch_is_not_wrong_when_evicted(self):
        hierarchy = self.prefetch_block_5_once()
        hierarchy.load(0, addr(5), 10000.0)  # L2 holds 1, then 5
        # Each load drains the previous load's fill: block 2's evicts 1,
        # block 3's evicts 5.
        for cycle, block in ((20000.0, 2), (30000.0, 3), (40000.0, 4)):
            hierarchy.load(0, addr(block), cycle)
        assert not hierarchy.l2.contains(5)
        assert hierarchy.stats.prefetch.timely == 1
        assert hierarchy.stats.prefetch.wrong == 0
        hierarchy.finalize()
        assert hierarchy.stats.prefetch.wrong == 0

    def test_prefetch_evicted_before_demand_is_wrong_at_eviction(self):
        hierarchy = self.prefetch_block_5_once()
        # Block 1's and 5's fills land first (L2 holds 1, then 5); block
        # 2's fill evicts 1 and block 3's evicts 5, never demanded.
        for cycle, block in ((10000.0, 2), (20000.0, 3), (30000.0, 4)):
            hierarchy.load(0, addr(block), cycle)
        assert not hierarchy.l2.contains(5)
        assert hierarchy.stats.prefetch.wrong == 1
        hierarchy.finalize()
        assert hierarchy.stats.prefetch.timely == 0
        assert hierarchy.stats.prefetch.wrong == 1

    def test_duplicate_prefetches_filtered(self):
        prefetcher = ScriptedPrefetcher([5])
        hierarchy = CacheHierarchy(SMALL, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        hierarchy.load(0, addr(2), 1.0)  # block 5 already in flight
        assert hierarchy.stats.prefetch.issued == 1

    def test_inflight_prefetch_cap(self):
        prefetcher = ScriptedPrefetcher(list(range(100, 200)))
        config = HierarchyConfig(
            l1_size_bytes=SMALL.l1_size_bytes, l1_ways=4,
            l2_size_bytes=SMALL.l2_size_bytes, l2_ways=8,
            llc_size_bytes=SMALL.llc_size_bytes, llc_ways=16,
            max_inflight_prefetches=8,
        )
        hierarchy = CacheHierarchy(config, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        assert hierarchy.stats.prefetch.issued == 8
        assert hierarchy.stats.prefetch.dropped > 0

    def test_negative_candidate_ignored(self):
        prefetcher = ScriptedPrefetcher([-3])
        hierarchy = CacheHierarchy(SMALL, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        assert hierarchy.stats.prefetch.issued == 0

    def test_prefetcher_trained_on_l1_misses_only(self):
        prefetcher = ScriptedPrefetcher([])
        hierarchy = CacheHierarchy(SMALL, l2_prefetcher=prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        hierarchy.load(0, addr(1), 10.0)  # L1 hit: not observed
        assert len(prefetcher.observations) == 1


class TestL1Prefetcher:
    def test_l1_prefetch_fills_l1(self):
        l1_prefetcher = ScriptedPrefetcher([2])
        hierarchy = CacheHierarchy(SMALL, l1_prefetcher=l1_prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        assert hierarchy.l1.contains(2)

    def test_l1_prefetcher_sees_all_accesses(self):
        l1_prefetcher = ScriptedPrefetcher([])
        hierarchy = CacheHierarchy(SMALL, l1_prefetcher=l1_prefetcher)
        hierarchy.load(0, addr(1), 0.0)
        hierarchy.load(0, addr(1), 10.0)
        assert len(l1_prefetcher.observations) == 2


class TestSharedLevels:
    def test_shared_llc_and_dram(self):
        from repro.uncore.cache import Cache
        from repro.uncore.dram import DRAMModel

        llc = Cache("LLC", SMALL.llc_size_bytes, SMALL.llc_ways)
        dram = DRAMModel()
        a = CacheHierarchy(SMALL, shared_llc=llc, shared_dram=dram)
        b = CacheHierarchy(SMALL, shared_llc=llc, shared_dram=dram)
        a.load(0, addr(1), 0.0)
        a.finalize()  # complete the in-flight fill into the shared LLC
        # Second hierarchy finds the line in the shared LLC.
        ready = b.load(0, addr(1), 10000.0)
        assert ready == pytest.approx(
            10000.0 + SMALL.l1_latency + SMALL.l2_latency + SMALL.llc_latency
        )
        assert dram.accesses == 1
