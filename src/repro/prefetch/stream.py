"""Stream prefetcher with programmable degree (§5.2, Table 6: 64 trackers).

Classic two-phase stream detection: a tracker is allocated per 4 KB region on
first touch, trains when subsequent accesses move monotonically through the
region, and once trained prefetches ``degree`` blocks ahead of the demand
stream in the detected direction. Degree 0 disables the prefetcher — which is
how the ensemble's arm encoding switches it off.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.prefetch.base import Prefetcher

#: Blocks per tracked region (4 KB regions of 64 B blocks).
REGION_BLOCKS = 64

#: Monotonic hits needed before a tracker starts prefetching.
TRAIN_THRESHOLD = 2


@dataclass
class _StreamTracker:
    __slots__ = ("last_block", "direction", "confidence")

    last_block: int
    direction: int
    confidence: int


class StreamPrefetcher(Prefetcher):
    """Region-based stream prefetcher with LRU tracker replacement."""

    name = "stream"

    def __init__(self, degree: int = 4, num_trackers: int = 64) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if num_trackers < 1:
            raise ValueError(f"num_trackers must be >= 1, got {num_trackers}")
        self.degree = degree
        self.num_trackers = num_trackers
        self._trackers: "OrderedDict[int, _StreamTracker]" = OrderedDict()

    @property
    def storage_bytes(self) -> int:
        # Per tracker: region tag (~6 B) + last block (1 B) + dir/conf (1 B).
        return self.num_trackers * 8

    def set_degree(self, degree: int) -> None:
        """Reprogram the degree register (POWER7-style, §5.2)."""
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.degree = degree

    def observe(self, pc: int, block: int, cycle: float, hit: bool) -> List[int]:
        # Training happens regardless of degree so that the ensemble's arm
        # switches find already-warm trackers; only emission is gated.
        trackers = self._trackers
        region = block // REGION_BLOCKS
        tracker = trackers.get(region)
        if tracker is None:
            self._allocate(region, block)
            return []
        trackers.move_to_end(region)
        delta = block - tracker.last_block
        if delta == 0:
            return []
        direction = 1 if delta > 0 else -1
        if direction == tracker.direction:
            confidence = tracker.confidence + 1
            tracker.confidence = 3 if confidence > 3 else confidence
        else:
            tracker.confidence -= 1
            if tracker.confidence <= 0:
                tracker.direction = direction
                tracker.confidence = 1
        tracker.last_block = block
        if tracker.confidence < TRAIN_THRESHOLD or self.degree == 0:
            return []
        return [block + tracker.direction * i for i in range(1, self.degree + 1)]

    def _allocate(self, region: int, block: int) -> None:
        if len(self._trackers) >= self.num_trackers:
            self._trackers.popitem(last=False)
        self._trackers[region] = _StreamTracker(
            last_block=block, direction=1, confidence=0
        )

    def reset(self) -> None:
        self._trackers.clear()
