"""Cache replacement policies.

The base :class:`~repro.uncore.cache.Cache` uses LRU. This module puts
LRU and :class:`SRRIP` behind one victim-selection interface, plus a
drop-in :class:`PolicyCache` that accepts either.

They exist for the §9 future-work extension explored in
``benchmarks/test_ext_joint_control.py``: using a single Bandit to
*jointly* select the prefetcher configuration and the cache replacement
policy (the action space is the product of the two, as §9 notes).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.uncore.cache import Cache, CacheLine


class ReplacementPolicy:
    """Victim selection + touch/insert bookkeeping for one cache."""

    name = "base"

    def on_insert(self, set_index: int, block: int) -> None:
        """A new block was allocated in ``set_index``."""

    def on_hit(self, set_index: int, block: int) -> None:
        """``block`` was re-referenced."""

    def on_evict(self, set_index: int, block: int) -> None:
        """``block`` left the cache."""

    def choose_victim(
        self, set_index: int, candidates: Dict[int, CacheLine]
    ) -> int:
        """Pick the block to evict from a full set."""
        raise NotImplementedError


class LRUReplacement(ReplacementPolicy):
    """Least-recently-used (matches the base Cache behaviour).

    A :class:`~repro.uncore.cache.Cache` keeps each set's dict in recency
    order, so the LRU line is the set's first key.
    """

    name = "lru"

    def choose_victim(self, set_index, candidates):
        return next(iter(candidates))


class SRRIP(ReplacementPolicy):
    """Static Re-Reference Interval Prediction (Jaleel et al.).

    Lines are inserted with a long re-reference prediction (RRPV = max−1),
    promoted to 0 on hit, and the victim is a line with RRPV = max (aging
    all lines until one qualifies).
    """

    name = "srrip"

    def __init__(self, max_rrpv: int = 3) -> None:
        if max_rrpv < 1:
            raise ValueError(f"max_rrpv must be >= 1, got {max_rrpv}")
        self.max_rrpv = max_rrpv
        self._rrpv: Dict[int, int] = {}
        self.insert_rrpv = max_rrpv - 1

    def on_insert(self, set_index, block):
        self._rrpv[block] = self.insert_rrpv

    def on_hit(self, set_index, block):
        self._rrpv[block] = 0

    def on_evict(self, set_index, block):
        self._rrpv.pop(block, None)

    def choose_victim(self, set_index, candidates):
        while True:
            for block in candidates:
                if self._rrpv.get(block, self.max_rrpv) >= self.max_rrpv:
                    return block
            for block in candidates:
                self._rrpv[block] = self._rrpv.get(block, 0) + 1


class PolicyCache(Cache):
    """A :class:`Cache` whose victim selection delegates to a policy."""

    def __init__(self, name: str, size_bytes: int, ways: int,
                 policy: Optional[ReplacementPolicy] = None,
                 block_bytes: int = 64) -> None:
        super().__init__(name, size_bytes, ways, block_bytes)
        self.policy = policy if policy is not None else LRUReplacement()

    def lookup(self, block: int):
        line = super().lookup(block)
        if line is not None:
            self.policy.on_hit(block % self.num_sets, block)
        return line

    def insert(self, block: int, *, prefetched: bool = False,
               dirty: bool = False):
        set_index = block % self.num_sets
        cache_set = self._sets[set_index]
        if block in cache_set:
            return super().insert(block, prefetched=prefetched, dirty=dirty)
        victim_line = None
        if len(cache_set) >= self.ways:
            victim_block = self.policy.choose_victim(set_index, cache_set)
            victim_line = cache_set.pop(victim_block)
            self.policy.on_evict(set_index, victim_block)
        cache_set[block] = CacheLine(block, prefetched, dirty)
        self.policy.on_insert(set_index, block)
        return victim_line
