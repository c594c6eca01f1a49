"""Multi-Lookahead Offset Prefetcher (Shakerinava et al., DPC-3 2019) [60].

MLOP generalizes best-offset prefetching by scoring offsets at multiple
*lookahead levels*: an offset scores at level ``k`` if it would have
prefetched a line at least ``k`` accesses before its demand use. At the end
of each evaluation round MLOP selects, for every lookahead level, the best
offset whose score clears a threshold, yielding a small set of offsets
prefetched together — so unlike BOP it sustains several offsets at once.

This implementation keeps MLOP's structure (access map of recent blocks with
arrival indices, per-level scoring, per-round selection) over a simplified
single-zone access map.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.prefetch.base import Prefetcher

DEFAULT_OFFSETS = tuple(range(-8, 0)) + tuple(range(1, 17))


class MLOPPrefetcher(Prefetcher):
    """Multi-lookahead offset scoring with per-level winners."""

    name = "mlop"

    def __init__(
        self,
        offsets: tuple = DEFAULT_OFFSETS,
        num_lookaheads: int = 4,
        round_length: int = 256,
        map_capacity: int = 256,
        score_fraction: float = 0.2,
    ) -> None:
        if num_lookaheads < 1:
            raise ValueError(f"num_lookaheads must be >= 1, got {num_lookaheads}")
        self.offsets = tuple(offsets)
        self.num_lookaheads = num_lookaheads
        self.round_length = round_length
        self.map_capacity = map_capacity
        self.score_fraction = score_fraction
        # block -> access index, LRU-bounded.
        self._access_map: "OrderedDict[int, int]" = OrderedDict()
        # offset -> per-lookahead-level score counts (transposed from the
        # paper's level-major matrix so the hot loop bumps a flat list).
        self._scores: Dict[int, List[int]] = {
            offset: [0] * num_lookaheads for offset in self.offsets
        }
        # (offset, counts) pairs snapshotted for the hot probe loop, so a
        # scoring hit skips the ``scores[offset]`` dict lookup.
        self._score_items = tuple(self._scores.items())
        self._access_index = 0
        self._round_accesses = 0
        self.selected_offsets: List[int] = [1]

    @property
    def storage_bytes(self) -> int:
        # The DPC-3 design reports ~8 KB: access maps + score matrix.
        return 8 * 1024

    def observe(self, pc: int, block: int, cycle: float, hit: bool) -> List[int]:
        index = self._access_index + 1
        self._access_index = index
        access_map = self._access_map
        access_map_get = access_map.get
        num_lookaheads = self.num_lookaheads
        for offset, counts in self._score_items:
            origin = access_map_get(block - offset)
            if origin is None:
                continue
            age = index - origin
            # The offset would have prefetched this block `age` accesses
            # early; credit every lookahead level it satisfies.
            if age > num_lookaheads:
                age = num_lookaheads
            level = 0
            while level < age:
                counts[level] += 1
                level += 1
        access_map[block] = index
        access_map.move_to_end(block)
        if len(access_map) > self.map_capacity:
            access_map.popitem(last=False)
        self._round_accesses += 1
        if self._round_accesses >= self.round_length:
            self._finish_round()
        return [block + offset for offset in self.selected_offsets]

    def _finish_round(self) -> None:
        threshold = int(self.round_length * self.score_fraction)
        scores = self._scores
        chosen: List[int] = []
        for level in range(self.num_lookaheads):
            best = max(self.offsets, key=lambda offset: scores[offset][level])
            if scores[best][level] >= threshold and best not in chosen:
                chosen.append(best)
        self.selected_offsets = chosen if chosen else []
        self._scores = {
            offset: [0] * self.num_lookaheads for offset in self.offsets
        }
        self._score_items = tuple(self._scores.items())
        self._round_accesses = 0

    def reset(self) -> None:
        self._access_map.clear()
        self._scores = {
            offset: [0] * self.num_lookaheads for offset in self.offsets
        }
        self._score_items = tuple(self._scores.items())
        self._access_index = 0
        self._round_accesses = 0
        self.selected_offsets = [1]
