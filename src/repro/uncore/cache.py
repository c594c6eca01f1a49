"""Set-associative cache with LRU replacement and prefetch metadata.

A line is ``(block, prefetched, dirty)``. A prefetch fill creates its line
with ``prefetched`` set, and the hierarchy clears the flag on the line's
first demand hit, so a line that still carries it has never been demanded:
that is how the hierarchy tells timely prefetches from wrong ones
(Figure 9). Timing lives in the hierarchy; the cache itself is purely a
contents model.

Recency is each set's dict order: the LRU line is always the set's first
key, and every recency touch re-appends the line at the MRU end, so
eviction pops the first key instead of scanning the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Optional


@dataclass
class CacheLine:
    """Metadata for one resident block."""

    __slots__ = ("block", "prefetched", "dirty")

    block: int
    prefetched: bool
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

    # ------------------------------------------------------------------ API

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Probe for ``block``; on a hit, move it to the MRU end of its set."""
        cache_set = self._sets[block % self.num_sets]
        line = cache_set.pop(block, None)
        if line is not None:
            cache_set[block] = line
        return line

    def contains(self, block: int) -> bool:
        """Presence check that leaves recency alone."""
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
        ``None``) rather than duplicating it: it moves to the MRU end and
        absorbs ``dirty``, and keeps its ``prefetched`` flag.
        """
        cache_set = self._sets[block % self.num_sets]
        existing = cache_set.pop(block, None)
        if existing is not None:
            existing.dirty = existing.dirty or dirty
            cache_set[block] = existing
            return None
        victim: Optional[CacheLine] = None
        if len(cache_set) >= self.ways:
            # The set's first key is its LRU line.
            victim = cache_set.pop(next(iter(cache_set)))
        cache_set[block] = CacheLine(block, prefetched, dirty)
        return victim

    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (end-of-run accounting)."""
        return chain.from_iterable(map(dict.values, self._sets))
