"""Set-associative cache with LRU replacement and prefetch metadata.

Lines carry a ``prefetched``/``used`` pair so the hierarchy can classify
prefetches as timely, late, or wrong (Figure 9). Timing lives in the
hierarchy; the cache itself is purely a contents model.

Recency is kept *intrusively* in each set's dict ordering: the LRU line is
always the set's first key and every recency touch re-appends the line at
the MRU end, so eviction is O(1) instead of an O(ways) ``min()`` scan per
insert. ``last_use`` stamps are still maintained — they are the recency
interface :mod:`repro.uncore.replacement` policies consume — and the dict
order is exactly ascending ``last_use``, so victim selection is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional


@dataclass
class CacheLine:
    """Metadata for one resident block."""

    __slots__ = ("block", "last_use", "prefetched", "used", "dirty")

    block: int
    last_use: int
    prefetched: bool
    used: bool
    dirty: bool


class Cache:
    """A set-associative cache indexed by block number.

    ``lookup`` probes and updates recency; ``insert`` allocates (evicting the
    LRU line if the set is full) and returns the victim so callers can track
    wrong prefetches and writebacks.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        block_bytes: int = 64,
    ) -> None:
        if size_bytes <= 0 or ways <= 0 or block_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        num_sets, remainder = divmod(size_bytes, ways * block_bytes)
        if remainder or num_sets == 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible into {ways}-way sets "
                f"of {block_bytes}B blocks"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = num_sets
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(num_sets)]
        self._stamp = 0
        self._resident = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ API

    def _set_for(self, block: int) -> Dict[int, CacheLine]:
        return self._sets[block % self.num_sets]

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Probe for ``block``; on a hit, refresh recency and mark it used."""
        cache_set = self._sets[block % self.num_sets]
        line = cache_set.get(block)
        if line is None:
            self.misses += 1
            return None
        self.hits += 1
        stamp = self._stamp + 1
        self._stamp = stamp
        line.last_use = stamp
        line.used = True
        # Move to the MRU end of the set's intrusive recency order.
        del cache_set[block]
        cache_set[block] = line
        return line

    def contains(self, block: int) -> bool:
        """Presence check without touching recency or hit/miss counters."""
        return block in self._sets[block % self.num_sets]

    def insert(
        self,
        block: int,
        *,
        prefetched: bool = False,
        dirty: bool = False,
    ) -> Optional[CacheLine]:
        """Allocate ``block``; returns the evicted line, if any.

        Re-inserting a resident block refreshes it in place (and returns
        ``None``) rather than duplicating it.
        """
        cache_set = self._sets[block % self.num_sets]
        stamp = self._stamp + 1
        self._stamp = stamp
        existing = cache_set.get(block)
        if existing is not None:
            existing.last_use = stamp
            existing.dirty = existing.dirty or dirty
            del cache_set[block]
            cache_set[block] = existing
            return None
        victim: Optional[CacheLine] = None
        if len(cache_set) >= self.ways:
            # The set's first key is its LRU line (intrusive recency order).
            victim_block = next(iter(cache_set))
            victim = cache_set.pop(victim_block)
            self._resident -= 1
        cache_set[block] = CacheLine(
            block=block,
            last_use=stamp,
            prefetched=prefetched,
            used=False,
            dirty=dirty,
        )
        self._resident += 1
        return victim

    def invalidate(self, block: int) -> Optional[CacheLine]:
        """Remove ``block`` if resident; returns the removed line."""
        line = self._sets[block % self.num_sets].pop(block, None)
        if line is not None:
            self._resident -= 1
        return line

    def occupancy(self) -> int:
        """Number of resident lines (O(1): maintained by insert/invalidate)."""
        return self._resident

    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (end-of-run accounting)."""
        return chain.from_iterable(map(dict.values, self._sets))

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
