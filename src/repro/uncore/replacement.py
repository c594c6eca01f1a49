"""Cache replacement policies.

The base :class:`~repro.uncore.cache.Cache` uses LRU. This module adds the
standard alternatives — :class:`SRRIP`, :class:`DRRIP` (set-dueling), and
:class:`RandomReplacement` — behind one victim-selection interface, plus a
drop-in :class:`PolicyCache` that accepts any of them.

They exist for the §9 future-work extension explored in
``benchmarks/test_ext_joint_control.py``: using a single Bandit to
*jointly* select the prefetcher configuration and the cache replacement
policy (the action space is the product of the two, as §9 notes).
"""

from __future__ import annotations

import random
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
    """Least-recently-used (matches the base Cache behaviour)."""

    name = "lru"

    def choose_victim(self, set_index, candidates):
        return min(candidates, key=lambda block: candidates[block].last_use)


class RandomReplacement(ReplacementPolicy):
    """Uniform random victim."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose_victim(self, set_index, candidates):
        return self._rng.choice(list(candidates))


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


class BRRIP(SRRIP):
    """Bimodal RRIP: mostly distant insertion, occasionally long."""

    name = "brrip"

    def __init__(self, max_rrpv: int = 3, long_probability: float = 1 / 32,
                 seed: int = 0) -> None:
        super().__init__(max_rrpv)
        self.long_probability = long_probability
        self._rng = random.Random(seed)

    def on_insert(self, set_index, block):
        if self._rng.random() < self.long_probability:
            self._rrpv[block] = self.max_rrpv - 1
        else:
            self._rrpv[block] = self.max_rrpv


class DRRIP(ReplacementPolicy):
    """Dynamic RRIP: set-dueling between SRRIP and BRRIP.

    A few leader sets are dedicated to each component policy; a saturating
    miss counter (PSEL) picks the winner for the follower sets.
    """

    name = "drrip"

    def __init__(self, num_sets: int, max_rrpv: int = 3,
                 leaders_per_policy: int = 4, seed: int = 0) -> None:
        if num_sets < 2 * leaders_per_policy:
            raise ValueError("not enough sets for the requested leader count")
        self.num_sets = num_sets
        self._srrip = SRRIP(max_rrpv)
        self._brrip = BRRIP(max_rrpv, seed=seed)
        stride = num_sets // (2 * leaders_per_policy)
        self._srrip_leaders = {i * 2 * stride for i in range(leaders_per_policy)}
        self._brrip_leaders = {
            i * 2 * stride + stride for i in range(leaders_per_policy)
        }
        self.psel = 512
        self._psel_max = 1023

    def _policy_for(self, set_index: int) -> ReplacementPolicy:
        if set_index in self._srrip_leaders:
            return self._srrip
        if set_index in self._brrip_leaders:
            return self._brrip
        return self._srrip if self.psel >= 512 else self._brrip

    def record_miss(self, set_index: int) -> None:
        """Misses in leader sets train PSEL (called by PolicyCache)."""
        if set_index in self._srrip_leaders:
            self.psel = max(self.psel - 1, 0)
        elif set_index in self._brrip_leaders:
            self.psel = min(self.psel + 1, self._psel_max)

    def on_insert(self, set_index, block):
        self._policy_for(set_index).on_insert(set_index, block)

    def on_hit(self, set_index, block):
        # Both components share RRPV state through their dicts; promote in
        # both so follower flips stay consistent.
        self._srrip.on_hit(set_index, block)
        self._brrip.on_hit(set_index, block)

    def on_evict(self, set_index, block):
        self._srrip.on_evict(set_index, block)
        self._brrip.on_evict(set_index, block)

    def choose_victim(self, set_index, candidates):
        return self._policy_for(set_index).choose_victim(set_index, candidates)


class PolicyCache(Cache):
    """A :class:`Cache` whose victim selection delegates to a policy."""

    def __init__(self, name: str, size_bytes: int, ways: int,
                 policy: Optional[ReplacementPolicy] = None,
                 block_bytes: int = 64) -> None:
        super().__init__(name, size_bytes, ways, block_bytes)
        self.policy = policy if policy is not None else LRUReplacement()

    def lookup(self, block: int):
        line = super().lookup(block)
        set_index = block % self.num_sets
        if line is not None:
            self.policy.on_hit(set_index, block)
        elif line is None and isinstance(self.policy, DRRIP):
            self.policy.record_miss(set_index)
        return line

    def insert(self, block: int, *, prefetched: bool = False,
               dirty: bool = False):
        cache_set = self._set_for(block)
        set_index = block % self.num_sets
        if block in cache_set:
            return super().insert(block, prefetched=prefetched, dirty=dirty)
        victim_line = None
        if len(cache_set) >= self.ways:
            victim_block = self.policy.choose_victim(set_index, cache_set)
            victim_line = cache_set.pop(victim_block)
            self._resident -= 1
            self.policy.on_evict(set_index, victim_block)
        self._stamp += 1
        cache_set[block] = CacheLine(
            block=block, last_use=self._stamp, prefetched=prefetched,
            used=False, dirty=dirty,
        )
        self._resident += 1
        self.policy.on_insert(set_index, block)
        return victim_line
