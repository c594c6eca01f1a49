"""Three-level cache hierarchy with prefetching, in the ChampSim style.

Matches the paper's setup (§6.1): the prefetcher under test sits at the L2,
is trained on L1 misses, and fills prefetched lines into the L2 and the LLC.
An optional L1 prefetcher (Figure 12's multi-level configurations) trains on
L1 demand accesses and fills the L1.

Timing contract: callers present demand accesses in non-decreasing cycle
order (the trace-driven core guarantees this); ``load`` returns the cycle at
which the data is available. Stores are write-allocate but non-blocking (the
store buffer hides their latency from commit), which is how trace-driven
prefetching studies typically treat them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Optional

from repro.prefetch.base import Prefetcher
from repro.uncore.cache import Cache, CacheLine
from repro.uncore.dram import DRAMModel
from repro.uncore.mshr import MSHR
from repro.workloads.trace import BLOCK_SHIFT


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry and latencies (defaults = Table 4 / Intel Skylake)."""

    l1_size_bytes: int = 32 * 1024
    l1_ways: int = 8
    l2_size_bytes: int = 256 * 1024
    l2_ways: int = 8
    llc_size_bytes: int = 2 * 1024 * 1024
    llc_ways: int = 16
    block_bytes: int = 64
    l1_latency: float = 4.0
    l2_latency: float = 14.0
    llc_latency: float = 40.0
    dram_latency: float = 200.0
    dram_mtps: float = 2400.0
    core_frequency_ghz: float = 4.0
    mshr_entries: int = 64
    max_inflight_prefetches: int = 32


@dataclass
class PrefetchOutcome:
    """Prefetch classification counters (Figure 9)."""

    issued: int = 0
    timely: int = 0
    late: int = 0
    wrong: int = 0
    dropped: int = 0

    def useful(self) -> int:
        return self.timely + self.late


@dataclass
class HierarchyStats:
    """Demand-side counters for one hierarchy instance."""

    loads: int = 0
    stores: int = 0
    l2_demand_accesses: int = 0
    l2_demand_hits: int = 0
    llc_demand_accesses: int = 0
    llc_demand_hits: int = 0
    dram_demand_fills: int = 0
    writebacks: int = 0
    prefetch: PrefetchOutcome = field(default_factory=PrefetchOutcome)

    @property
    def l2_demand_misses(self) -> int:
        return self.l2_demand_accesses - self.l2_demand_hits

    @property
    def llc_demand_misses(self) -> int:
        return self.llc_demand_accesses - self.llc_demand_hits


class CacheHierarchy:
    """Private L1+L2 over a (possibly shared) LLC and DRAM."""

    def __init__(
        self,
        config: HierarchyConfig = HierarchyConfig(),
        l2_prefetcher: Optional[Prefetcher] = None,
        l1_prefetcher: Optional[Prefetcher] = None,
        shared_llc: Optional[Cache] = None,
        shared_dram: Optional[DRAMModel] = None,
    ) -> None:
        self.config = config
        self.l1 = Cache("L1D", config.l1_size_bytes, config.l1_ways,
                        config.block_bytes)
        self.l2 = Cache("L2", config.l2_size_bytes, config.l2_ways,
                        config.block_bytes)
        self.llc = shared_llc if shared_llc is not None else Cache(
            "LLC", config.llc_size_bytes, config.llc_ways, config.block_bytes
        )
        self.dram = shared_dram if shared_dram is not None else DRAMModel(
            latency_cycles=config.dram_latency,
            mtps=config.dram_mtps,
            core_frequency_ghz=config.core_frequency_ghz,
        )
        self.l2_prefetcher = l2_prefetcher
        self.l1_prefetcher = l1_prefetcher
        self.mshr = MSHR(config.mshr_entries)
        self.stats = HierarchyStats()
        self._inflight_prefetches = 0

    # ------------------------------------------------------------- demand API

    def load(self, pc: int, address: int, cycle: float) -> float:
        """Demand load; returns the data-ready cycle."""
        self.stats.loads += 1
        return self._demand_access(pc, address, cycle, is_write=False)

    def store(self, pc: int, address: int, cycle: float) -> float:
        """Demand store (write-allocate, non-blocking for the core)."""
        self.stats.stores += 1
        self._demand_access(pc, address, cycle, is_write=True)
        return cycle + self.config.l1_latency

    # --------------------------------------------------------------- internals

    def _demand_access(
        self, pc: int, address: int, cycle: float, *, is_write: bool
    ) -> float:
        """Fused demand path: lookups, fills, and MSHR checks inline.

        Byte-for-byte equivalent to :meth:`_demand_access_generic` (the
        readable reference implementation it falls back to whenever a cache
        level is a replacement-policy subclass): same counter updates in the
        same order, same recency stamps, same fill cascades. The fusion only
        removes per-access method-call overhead — ``Cache.lookup`` /
        ``Cache.insert`` / ``MSHR.drain_completed`` dispatches on the replay
        hot loop.
        """
        l1 = self.l1
        l2 = self.l2
        llc = self.llc
        if type(l1) is not Cache or type(l2) is not Cache or type(llc) is not Cache:
            return self._demand_access_generic(pc, address, cycle, is_write=is_write)

        config = self.config
        block = address >> BLOCK_SHIFT
        mshr = self.mshr
        heap = mshr._heap
        if heap and heap[0][0] <= cycle:
            mshr.drain_completed(cycle, self._install_fill)

        # Inlined l1.lookup(block).
        cache_set = l1._sets[block % l1.num_sets]
        line = cache_set.get(block)
        if line is None:
            l1.misses += 1
        else:
            l1.hits += 1
            stamp = l1._stamp + 1
            l1._stamp = stamp
            line.last_use = stamp
            line.used = True
            del cache_set[block]
            cache_set[block] = line
        if self.l1_prefetcher is not None:
            self._run_l1_prefetcher(pc, block, cycle, hit=line is not None)
        if line is not None:
            if is_write:
                line.dirty = True
            return cycle + config.l1_latency

        # L1 miss -> L2 demand access; this stream trains the L2 prefetcher.
        stats = self.stats
        l2_cycle = cycle + config.l1_latency
        stats.l2_demand_accesses += 1
        # Inlined l2.lookup(block).
        l2_set = l2._sets[block % l2.num_sets]
        l2_line = l2_set.get(block)
        if l2_line is not None:
            l2.hits += 1
            stamp = l2._stamp + 1
            l2._stamp = stamp
            l2_line.last_use = stamp
            l2_line.used = True
            del l2_set[block]
            l2_set[block] = l2_line
            stats.l2_demand_hits += 1
            if l2_line.prefetched:
                # First demand use of a prefetched, resident line: timely.
                stats.prefetch.timely += 1
                l2_line.prefetched = False
            ready = l2_cycle + config.l2_latency
        else:
            l2.misses += 1
            # Inlined _l2_miss(block, l2_cycle).
            inflight = mshr._inflight.get(block)
            if inflight is not None:
                ready_cycle, is_prefetch = inflight
                if is_prefetch:
                    # Demand caught up with an in-flight prefetch: late.
                    stats.prefetch.late += 1
                    mshr.promote_to_demand(block)
                    self._inflight_prefetches -= 1
                l2_ready = l2_cycle + config.l2_latency
                ready = ready_cycle if ready_cycle > l2_ready else l2_ready
            else:
                llc_cycle = l2_cycle + config.l2_latency
                stats.llc_demand_accesses += 1
                # Inlined llc.lookup(block).
                llc_set = llc._sets[block % llc.num_sets]
                llc_line = llc_set.get(block)
                if llc_line is not None:
                    llc.hits += 1
                    stamp = llc._stamp + 1
                    llc._stamp = stamp
                    llc_line.last_use = stamp
                    llc_line.used = True
                    del llc_set[block]
                    llc_set[block] = llc_line
                    stats.llc_demand_hits += 1
                    ready = llc_cycle + config.llc_latency
                    self._fill_l2(block, prefetched=False)
                else:
                    llc.misses += 1
                    # DRAM fill through the MSHR (allocate inlined; the
                    # in-flight probe above guarantees no duplicate entry).
                    ready = self.dram.access(llc_cycle + config.llc_latency)
                    stats.dram_demand_fills += 1
                    inflight_map = mshr._inflight
                    if len(inflight_map) < mshr.capacity:
                        inflight_map[block] = (ready, False)
                        heappush(heap, (ready, block))
                    else:
                        # MSHR pressure: the fill still happens, just
                        # untracked (the demand already paid its latency).
                        self._install_fill(block, ready, False)
        # Inlined _fill_l1(block, dirty=is_write).
        stamp = l1._stamp + 1
        l1._stamp = stamp
        existing = cache_set.get(block)
        if existing is not None:
            existing.last_use = stamp
            existing.dirty = existing.dirty or is_write
            del cache_set[block]
            cache_set[block] = existing
        else:
            victim = None
            if len(cache_set) >= l1.ways:
                victim_block = next(iter(cache_set))
                victim = cache_set.pop(victim_block)
                l1._resident -= 1
            cache_set[block] = CacheLine(block, stamp, False, False, is_write)
            l1._resident += 1
            if victim is not None and victim.dirty:
                # L1 writeback lands in L2 (no DRAM traffic).
                self._fill_l2(victim.block, prefetched=False, dirty=True)
        if self.l2_prefetcher is not None:
            self._run_l2_prefetcher(pc, block, cycle, hit=l2_line is not None)
        return ready

    def _demand_access_generic(
        self, pc: int, address: int, cycle: float, *, is_write: bool
    ) -> float:
        """Reference demand path (replacement-policy caches route here)."""
        config = self.config
        block = address >> BLOCK_SHIFT
        mshr = self.mshr
        if mshr.has_inflight:
            mshr.drain_completed(cycle, self._install_fill)

        line = self.l1.lookup(block)
        if self.l1_prefetcher is not None:
            self._run_l1_prefetcher(pc, block, cycle, hit=line is not None)
        if line is not None:
            if is_write:
                line.dirty = True
            return cycle + config.l1_latency

        # L1 miss -> L2 demand access; this stream trains the L2 prefetcher.
        stats = self.stats
        l2_cycle = cycle + config.l1_latency
        stats.l2_demand_accesses += 1
        l2_line = self.l2.lookup(block)
        if l2_line is not None:
            stats.l2_demand_hits += 1
            if l2_line.prefetched:
                # First demand use of a prefetched, resident line: timely.
                stats.prefetch.timely += 1
                l2_line.prefetched = False
            ready = l2_cycle + config.l2_latency
        else:
            ready = self._l2_miss(block, l2_cycle)
        self._fill_l1(block, dirty=is_write)
        if self.l2_prefetcher is not None:
            self._run_l2_prefetcher(pc, block, cycle, hit=l2_line is not None)
        return ready

    def _l2_miss(self, block: int, l2_cycle: float) -> float:
        config = self.config
        inflight = self.mshr.lookup(block)
        if inflight is not None:
            ready_cycle, is_prefetch = inflight
            if is_prefetch:
                # Demand caught up with an in-flight prefetch: late prefetch.
                self.stats.prefetch.late += 1
                self.mshr.promote_to_demand(block)
                self._inflight_prefetches -= 1
            return max(ready_cycle, l2_cycle + config.l2_latency)

        llc_cycle = l2_cycle + config.l2_latency
        self.stats.llc_demand_accesses += 1
        llc_line = self.llc.lookup(block)
        if llc_line is not None:
            self.stats.llc_demand_hits += 1
            ready = llc_cycle + config.llc_latency
            self._fill_l2(block, prefetched=False)
            return ready

        # DRAM fill through the MSHR.
        ready = self.dram.access(llc_cycle + config.llc_latency)
        self.stats.dram_demand_fills += 1
        if not self.mshr.full:
            self.mshr.allocate(block, ready, is_prefetch=False)
        else:
            # MSHR pressure: the fill still happens, just untracked (the
            # demand has already paid its latency).
            self._install_fill(block, ready, False)
        return ready

    # ---------------------------------------------------------------- fills

    def _install_fill(self, block: int, ready_cycle: float, is_prefetch: bool) -> None:
        if is_prefetch:
            self._inflight_prefetches -= 1
        self._fill_l2(block, prefetched=is_prefetch)
        self._fill_llc(block, prefetched=is_prefetch)

    def _fill_l1(self, block: int, *, dirty: bool) -> None:
        victim = self.l1.insert(block, dirty=dirty)
        if victim is not None and victim.dirty:
            # L1 writeback lands in L2 (no DRAM traffic).
            self._fill_l2(victim.block, prefetched=False, dirty=True)

    def _fill_l2(
        self, block: int, *, prefetched: bool, dirty: bool = False
    ) -> None:
        """Fill into L2: fused ``insert`` + victim handling for plain caches.

        On the eviction path the victim :class:`CacheLine` object is
        recycled for the incoming block (its fields are read out first), so
        a warm cache fills without allocating.
        """
        l2 = self.l2
        if type(l2) is not Cache:
            victim = l2.insert(block, prefetched=prefetched, dirty=dirty)
            if victim is not None:
                if victim.prefetched and not victim.used:
                    self.stats.prefetch.wrong += 1
                if victim.dirty:
                    self._fill_llc(victim.block, prefetched=False, dirty=True)
            return
        cache_set = l2._sets[block % l2.num_sets]
        stamp = l2._stamp + 1
        l2._stamp = stamp
        existing = cache_set.get(block)
        if existing is not None:
            existing.last_use = stamp
            existing.dirty = existing.dirty or dirty
            del cache_set[block]
            cache_set[block] = existing
            return
        if len(cache_set) >= l2.ways:
            victim_block = next(iter(cache_set))
            victim = cache_set.pop(victim_block)
            victim_dirty = victim.dirty
            if victim.prefetched and not victim.used:
                self.stats.prefetch.wrong += 1
            victim.block = block
            victim.last_use = stamp
            victim.prefetched = prefetched
            victim.used = False
            victim.dirty = dirty
            cache_set[block] = victim
            if victim_dirty:
                self._fill_llc(victim_block, prefetched=False, dirty=True)
        else:
            cache_set[block] = CacheLine(block, stamp, prefetched, False, dirty)
            l2._resident += 1

    def _fill_llc(
        self, block: int, *, prefetched: bool, dirty: bool = False
    ) -> None:
        llc = self.llc
        if type(llc) is not Cache:
            victim = llc.insert(block, prefetched=prefetched, dirty=dirty)
            if victim is not None and victim.dirty:
                self.stats.writebacks += 1
                # Dirty LLC victims consume DRAM bandwidth; no one waits.
                self.dram.writeback()
            return
        cache_set = llc._sets[block % llc.num_sets]
        stamp = llc._stamp + 1
        llc._stamp = stamp
        existing = cache_set.get(block)
        if existing is not None:
            existing.last_use = stamp
            existing.dirty = existing.dirty or dirty
            del cache_set[block]
            cache_set[block] = existing
            return
        if len(cache_set) >= llc.ways:
            victim_block = next(iter(cache_set))
            victim = cache_set.pop(victim_block)
            victim_dirty = victim.dirty
            victim.block = block
            victim.last_use = stamp
            victim.prefetched = prefetched
            victim.used = False
            victim.dirty = dirty
            cache_set[block] = victim
            if victim_dirty:
                self.stats.writebacks += 1
                # Dirty LLC victims consume DRAM bandwidth; no one waits.
                self.dram.writeback()
        else:
            cache_set[block] = CacheLine(block, stamp, prefetched, False, dirty)
            llc._resident += 1

    # ------------------------------------------------------------ prefetching

    def _run_l2_prefetcher(
        self, pc: int, block: int, cycle: float, *, hit: bool
    ) -> None:
        candidates = self.l2_prefetcher.observe(pc, block, cycle, hit)
        for candidate in candidates:
            self._issue_l2_prefetch(candidate, cycle)

    def _issue_l2_prefetch(self, block: int, cycle: float) -> None:
        if block < 0:
            return
        config = self.config
        if self.l2.contains(block) or self.mshr.lookup(block) is not None:
            return
        if (
            self._inflight_prefetches >= config.max_inflight_prefetches
            or self.mshr.full
        ):
            self.stats.prefetch.dropped += 1
            return
        self.stats.prefetch.issued += 1
        if self.llc.contains(block):
            ready = cycle + config.l2_latency + config.llc_latency
        else:
            ready = self.dram.access(
                cycle + config.l2_latency + config.llc_latency, is_prefetch=True
            )
        self.mshr.allocate(block, ready, is_prefetch=True)
        self._inflight_prefetches += 1

    def _run_l1_prefetcher(
        self, pc: int, block: int, cycle: float, *, hit: bool
    ) -> None:
        candidates = self.l1_prefetcher.observe(pc, block, cycle, hit)
        for candidate in candidates:
            if candidate < 0 or self.l1.contains(candidate):
                continue
            # L1 prefetches are modeled as contents-only fills pulled from
            # the lower levels; they reuse the L2 path for traffic accounting.
            if not self.l2.contains(candidate):
                self._issue_l2_prefetch(candidate, cycle)
            self.l1.insert(candidate)

    # ------------------------------------------------------------- lifecycle

    def finalize(self) -> None:
        """Flush in-flight fills and count never-used prefetched lines."""
        self.mshr.flush(self._install_fill)
        for line in self.l2.resident_lines():
            if line.prefetched and not line.used:
                self.stats.prefetch.wrong += 1
                line.prefetched = False
