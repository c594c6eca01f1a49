"""The fused replay kernel: core + hierarchy hot loop in one frame.

:meth:`~repro.core_model.trace_core.TraceCore.run_compiled` dispatches here
when the hierarchy is eligible (plain :class:`~repro.uncore.cache.Cache`
levels, no L1 prefetcher): one Python frame replays the whole compiled
trace with every per-record quantity — core timing scalars, cache set
dicts, hierarchy stat counters, MSHR state — held in local variables and
written back to the model objects once, after the last record. The cache
sets are the model's own dicts of ``CacheLine(block, prefetched, dirty)``,
kept in recency order as :class:`~repro.uncore.cache.Cache` keeps them,
so eviction pops a set's first key. This is the ChampSim-style tight loop
the object path approximates: the simulated behaviour is bit-identical
(asserted per workload suite in ``tests/test_compiled_trace.py``); only
Python-level overhead — method dispatch, attribute loads, and per-record
allocation — is removed.

Concessions to observability:

- ``record_hook`` consumers (the bandit step loop) see the core's counter
  scalars and ``stats.l2_demand_accesses`` flushed before every call; all
  other counters are flushed only at the end of the replay. A hook that
  returns ``(l2_threshold, cycle_threshold)`` opts into the *thresholded*
  protocol: it promises to be a no-op until ``stats.l2_demand_accesses``
  or ``retire_time`` (both monotone) reach the returned bounds, letting
  the kernel skip the flush + call entirely in between.
- The prefetcher's ``observe`` and the DRAM model's ``access``/``writeback``
  stay real calls for every prefetcher, so their internal state is always
  current: the kernel holds no copy of the DRAM channel model, and
  Pythia's bandwidth probe reads :class:`~repro.uncore.dram.DRAMModel`
  mid-replay.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.prefetch.base import NullPrefetcher
from repro.uncore.cache import CacheLine

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.core_model.trace_core import TraceCore

_INF = float("inf")


def run_replay_kernel(
    core: "TraceCore",
    pcs: List[int],
    blocks: List[int],
    all_flags: List[int],
    gaps: List[int],
    record_hook: Optional[
        Callable[["TraceCore"], Optional[Tuple[float, float]]]
    ] = None,
) -> None:
    """Replay the compiled arrays on ``core``. Caller checks eligibility."""
    hierarchy = core.hierarchy
    config = hierarchy.config
    l1_latency = config.l1_latency
    l2_latency = config.l2_latency
    llc_latency = config.llc_latency
    max_inflight_prefetches = config.max_inflight_prefetches

    l1 = hierarchy.l1
    l1_sets = l1._sets
    l1_num_sets = l1.num_sets
    l1_ways = l1.ways

    l2 = hierarchy.l2
    l2_sets = l2._sets
    l2_num_sets = l2.num_sets
    l2_ways = l2.ways

    llc = hierarchy.llc
    llc_sets = llc._sets
    llc_num_sets = llc.num_sets
    llc_ways = llc.ways

    stats = hierarchy.stats
    loads = stats.loads
    stores = stats.stores
    l2_demand_accesses = stats.l2_demand_accesses
    l2_demand_hits = stats.l2_demand_hits
    llc_demand_accesses = stats.llc_demand_accesses
    llc_demand_hits = stats.llc_demand_hits
    dram_demand_fills = stats.dram_demand_fills
    writebacks = stats.writebacks
    prefetch_stats = stats.prefetch
    pf_issued = prefetch_stats.issued
    pf_timely = prefetch_stats.timely
    pf_late = prefetch_stats.late
    pf_wrong = prefetch_stats.wrong
    pf_dropped = prefetch_stats.dropped

    mshr = hierarchy.mshr
    inflight = mshr._inflight
    inflight_get = inflight.get
    inflight_pop = inflight.pop
    heap = mshr._heap
    mshr_capacity = mshr.capacity
    inflight_prefetches = hierarchy._inflight_prefetches

    dram = hierarchy.dram
    dram_access = dram.access
    dram_writeback = dram.writeback

    prefetcher = hierarchy.l2_prefetcher
    if prefetcher is None or type(prefetcher) is NullPrefetcher:
        # NullPrefetcher.observe is stateless and always empty: skipping
        # the call per L1 miss is exact.
        observe = None
    else:
        observe = prefetcher.observe

    # Next cycle at which any MSHR fill completes; spares the drain site a
    # heap subscript on the (common) records with nothing ready.
    next_fill_ready = heap[0][0] if heap else _INF

    # Fill helpers: closures over the set dicts and geometry; counters they
    # touch are shared cells (``nonlocal``). Each body is ``Cache.insert``
    # plus CacheHierarchy's victim accounting in _fill_l2/_fill_llc, except
    # that the evicted CacheLine is recycled for the incoming block (its
    # fields read out first), which ``Cache.insert`` does not do.

    def fill_llc(block: int, dirty: bool) -> None:
        nonlocal writebacks
        cache_set = llc_sets[block % llc_num_sets]
        existing = cache_set.pop(block, None)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            cache_set[block] = existing
            return
        if len(cache_set) >= llc_ways:
            for victim_block in cache_set:
                break
            victim = cache_set.pop(victim_block)
            victim_dirty = victim.dirty
            victim.block = block
            victim.dirty = dirty
            cache_set[block] = victim
            if victim_dirty:
                writebacks += 1
                dram_writeback()
        else:
            cache_set[block] = CacheLine(block, False, dirty)

    def fill_l2(block: int, prefetched: bool, dirty: bool) -> None:
        nonlocal pf_wrong
        cache_set = l2_sets[block % l2_num_sets]
        existing = cache_set.pop(block, None)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            cache_set[block] = existing
            return
        if len(cache_set) >= l2_ways:
            for victim_block in cache_set:
                break
            victim = cache_set.pop(victim_block)
            victim_dirty = victim.dirty
            if victim.prefetched:
                # Never demanded (the first demand hit clears the flag).
                pf_wrong += 1
            victim.block = block
            victim.prefetched = prefetched
            victim.dirty = dirty
            cache_set[block] = victim
            if victim_dirty:
                fill_llc(victim_block, True)
        else:
            cache_set[block] = CacheLine(block, prefetched, dirty)

    # Core timing state (mirrors TraceCore.execute and _issue_time).
    rob_size = core.config.rob_size
    commit_cost = core._commit_cost
    dispatch_cost = core._dispatch_cost
    # The ROB window as parallel flat lists with a head cursor: appends are
    # two list appends, and the boundary advance is an index walk instead of
    # deque popleft + tuple unpack. Rebuilt into the core's deque at the end.
    window = core._window
    win_idx: List[int] = []
    win_ret: List[float] = []
    for win_entry in window:
        win_idx.append(win_entry[0])
        win_ret.append(win_entry[1])
    win_append_idx = win_idx.append
    win_append_ret = win_ret.append
    win_head = 0
    win_len = len(win_idx)
    instructions = core.instructions
    retire_time = core.retire_time
    dispatch_time = core.dispatch_time
    last_load_ready = core._last_load_ready
    anchor_index = core._anchor_index
    anchor_retire = core._anchor_retire

    # Thresholded hook protocol: a hook may return ``(l2_threshold,
    # cycle_threshold)``, promising it is a no-op until
    # ``stats.l2_demand_accesses`` reaches the former or ``retire_time``
    # reaches the latter; the kernel then skips the flush + call until one
    # threshold is crossed (both monotone). A hook returning ``None`` is
    # called after every record (the compatibility contract).
    hook_l2 = -_INF
    hook_cycle = -_INF

    # Packed record flags: bit0 write, bit1 dependent (CompiledTrace.flags).
    for pc, block, rflags, gap in zip(pcs, blocks, all_flags, gaps):
        if gap:
            instructions += gap
            retire_time += gap * commit_cost
            dispatch_time += gap * dispatch_cost

        instructions += 1
        index = instructions
        dispatch_time += dispatch_cost
        boundary = index - rob_size
        if boundary > 0:
            if win_head < win_len and win_idx[win_head] <= boundary:
                h = win_head + 1
                while h < win_len and win_idx[h] <= boundary:
                    h += 1
                anchor_index = win_idx[h - 1]
                anchor_retire = win_ret[h - 1]
                win_head = h
                if h > 65536:
                    del win_idx[:h]
                    del win_ret[:h]
                    win_len -= h
                    win_head = 0
            behind = boundary - anchor_index
            if behind > 0:
                floor = anchor_retire + behind * commit_cost
            else:
                floor = anchor_retire
            if floor > dispatch_time:
                dispatch_time = floor
        cycle = dispatch_time

        is_write = rflags & 1
        if is_write:
            stores += 1
        else:
            if rflags & 2 and last_load_ready > cycle:  # FLAG_DEPENDENT
                cycle = last_load_ready
            loads += 1

        # ---- demand access (CacheHierarchy._demand_access, inlined) ----
        if next_fill_ready <= cycle:
            # MSHR drain: complete every fill whose ready time has passed.
            # This is the hottest fill site (one L2+LLC fill per tracked
            # DRAM access), so both fill bodies are inlined here with their
            # ``dirty=False`` specialization; only the rare dirty-victim
            # cascade goes through the closure. Measured on a 2-vCPU host
            # (perfbench ``lineup``, 6 alternating pairs): calling the two
            # closures here took median wall from 0.548 to 0.577 s, and the
            # inlined bodies won 5 of 6 pairs; the other fill sites call
            # the closures at no measurable cost (0.544 to 0.545 s).
            while heap and heap[0][0] <= cycle:
                fill_block = heappop(heap)[1]
                entry = inflight_pop(fill_block, None)
                if entry is None:
                    continue  # superseded entry
                fill_is_prefetch = entry[1]
                if fill_is_prefetch:
                    inflight_prefetches -= 1
                # fill_l2(fill_block, fill_is_prefetch, False), inlined.
                fill_set = l2_sets[fill_block % l2_num_sets]
                existing = fill_set.pop(fill_block, None)
                if existing is not None:
                    fill_set[fill_block] = existing
                elif len(fill_set) >= l2_ways:
                    for victim_block in fill_set:
                        break
                    victim = fill_set.pop(victim_block)
                    victim_dirty = victim.dirty
                    if victim.prefetched:
                        pf_wrong += 1
                    victim.block = fill_block
                    victim.prefetched = fill_is_prefetch
                    victim.dirty = False
                    fill_set[fill_block] = victim
                    if victim_dirty:
                        fill_llc(victim_block, True)
                else:
                    fill_set[fill_block] = CacheLine(
                        fill_block, fill_is_prefetch, False)
                # fill_llc(fill_block, False), inlined.
                fill_set = llc_sets[fill_block % llc_num_sets]
                existing = fill_set.pop(fill_block, None)
                if existing is not None:
                    fill_set[fill_block] = existing
                elif len(fill_set) >= llc_ways:
                    for victim_block in fill_set:
                        break
                    victim = fill_set.pop(victim_block)
                    victim_dirty = victim.dirty
                    victim.block = fill_block
                    victim.dirty = False
                    fill_set[fill_block] = victim
                    if victim_dirty:
                        writebacks += 1
                        dram_writeback()
                else:
                    fill_set[fill_block] = CacheLine(fill_block, False, False)
            next_fill_ready = heap[0][0] if heap else _INF

        cache_set = l1_sets[block % l1_num_sets]
        line = cache_set.pop(block, None)
        if line is not None:
            # L1 hit. pop + reinsert performs the LRU touch in two dict
            # operations (a miss leaves the set untouched).
            cache_set[block] = line
            if is_write:
                line.dirty = True
                retire_time += commit_cost
            else:
                ready = cycle + l1_latency
                last_load_ready = ready
                next_retire = retire_time + commit_cost
                retire_time = ready if ready > next_retire else next_retire
            win_append_idx(index)
            win_append_ret(retire_time)
            win_len += 1
            if record_hook is not None and (
                l2_demand_accesses >= hook_l2 or retire_time >= hook_cycle
            ):
                core.instructions = instructions
                core.retire_time = retire_time
                core.dispatch_time = dispatch_time
                core._last_load_ready = last_load_ready
                core._anchor_index = anchor_index
                core._anchor_retire = anchor_retire
                stats.l2_demand_accesses = l2_demand_accesses
                hook_limits = record_hook(core)
                if hook_limits is not None:
                    hook_l2, hook_cycle = hook_limits
            continue

        # L1 miss -> L2 demand access; this stream trains the L2 prefetcher.
        l2_cycle = cycle + l1_latency
        l2_demand_accesses += 1
        l2_set = l2_sets[block % l2_num_sets]
        l2_line = l2_set.pop(block, None)
        if l2_line is not None:
            l2_set[block] = l2_line
            l2_demand_hits += 1
            if l2_line.prefetched:
                # First demand use of a prefetched, resident line: timely.
                pf_timely += 1
                l2_line.prefetched = False
            ready = l2_cycle + l2_latency
        else:
            entry = inflight_get(block)
            if entry is not None:
                # Demand caught up with an in-flight fill.
                entry_ready = entry[0]
                if entry[1]:
                    # ... which was a prefetch: late.
                    pf_late += 1
                    inflight[block] = (entry_ready, False)
                    inflight_prefetches -= 1
                l2_ready = l2_cycle + l2_latency
                ready = entry_ready if entry_ready > l2_ready else l2_ready
            else:
                llc_cycle = l2_cycle + l2_latency
                llc_demand_accesses += 1
                llc_set = llc_sets[block % llc_num_sets]
                llc_line = llc_set.pop(block, None)
                if llc_line is not None:
                    llc_set[block] = llc_line
                    llc_demand_hits += 1
                    ready = llc_cycle + llc_latency
                    fill_l2(block, False, False)
                else:
                    # DRAM fill through the MSHR.
                    ready = dram_access(llc_cycle + llc_latency)
                    dram_demand_fills += 1
                    if len(inflight) < mshr_capacity:
                        inflight[block] = (ready, False)
                        heappush(heap, (ready, block))
                        if ready < next_fill_ready:
                            next_fill_ready = ready
                    else:
                        # MSHR pressure: the fill still happens, untracked.
                        fill_l2(block, False, False)
                        fill_llc(block, False)

        # Fill L1 (inlined _fill_l1 with CacheLine recycling). The block
        # just missed the L1 probe and nothing fills the L1 in between, so
        # no existing-line check is needed.
        if len(cache_set) >= l1_ways:
            for victim_block in cache_set:
                break
            victim = cache_set.pop(victim_block)
            victim_dirty = victim.dirty
            victim.block = block
            victim.dirty = True if is_write else False
            cache_set[block] = victim
            if victim_dirty:
                # L1 writeback lands in L2 (no DRAM traffic).
                fill_l2(victim_block, False, True)
        else:
            cache_set[block] = CacheLine(block, False,
                                         True if is_write else False)

        if observe is not None:
            # _run_l2_prefetcher + _issue_l2_prefetch, inlined.
            for candidate in observe(pc, block, cycle, l2_line is not None):
                if candidate < 0 or candidate in l2_sets[
                    candidate % l2_num_sets
                ] or candidate in inflight:
                    continue
                if (inflight_prefetches >= max_inflight_prefetches
                        or len(inflight) >= mshr_capacity):
                    pf_dropped += 1
                    continue
                pf_issued += 1
                if candidate in llc_sets[candidate % llc_num_sets]:
                    pf_ready = cycle + l2_latency + llc_latency
                else:
                    pf_ready = dram_access(cycle + l2_latency + llc_latency)
                inflight[candidate] = (pf_ready, True)
                heappush(heap, (pf_ready, candidate))
                if pf_ready < next_fill_ready:
                    next_fill_ready = pf_ready
                inflight_prefetches += 1

        if is_write:
            retire_time += commit_cost
        else:
            last_load_ready = ready
            next_retire = retire_time + commit_cost
            retire_time = ready if ready > next_retire else next_retire
        win_append_idx(index)
        win_append_ret(retire_time)
        win_len += 1

        if record_hook is not None and (
            l2_demand_accesses >= hook_l2 or retire_time >= hook_cycle
        ):
            core.instructions = instructions
            core.retire_time = retire_time
            core.dispatch_time = dispatch_time
            core._last_load_ready = last_load_ready
            core._anchor_index = anchor_index
            core._anchor_retire = anchor_retire
            stats.l2_demand_accesses = l2_demand_accesses
            hook_limits = record_hook(core)
            if hook_limits is not None:
                hook_l2, hook_cycle = hook_limits

    # ------------------------------------------------------------ write-back
    core.instructions = instructions
    core.retire_time = retire_time
    core.dispatch_time = dispatch_time
    core._last_load_ready = last_load_ready
    core._anchor_index = anchor_index
    core._anchor_retire = anchor_retire
    window.clear()
    window.extend(zip(win_idx[win_head:] if win_head else win_idx,
                      win_ret[win_head:] if win_head else win_ret))

    stats.loads = loads
    stats.stores = stores
    stats.l2_demand_accesses = l2_demand_accesses
    stats.l2_demand_hits = l2_demand_hits
    stats.llc_demand_accesses = llc_demand_accesses
    stats.llc_demand_hits = llc_demand_hits
    stats.dram_demand_fills = dram_demand_fills
    stats.writebacks = writebacks
    prefetch_stats.issued = pf_issued
    prefetch_stats.timely = pf_timely
    prefetch_stats.late = pf_late
    prefetch_stats.wrong = pf_wrong
    prefetch_stats.dropped = pf_dropped

    hierarchy._inflight_prefetches = inflight_prefetches
