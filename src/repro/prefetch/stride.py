"""PC-based stride prefetcher with programmable degree (§5.2).

A table keyed by load PC tracks the last block touched and the last observed
stride; once the same stride repeats (confidence ≥ 2) the prefetcher issues
``degree`` strided blocks ahead. Because state is per-PC it sustains several
concurrent strides — the "can already distinguish environment states to some
extent" property §3.1 leans on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.prefetch.base import Prefetcher

#: Repeats of the same stride required before prefetching.
CONFIDENCE_THRESHOLD = 2


@dataclass
class _StrideEntry:
    __slots__ = ("last_block", "stride", "confidence")

    last_block: int
    stride: int
    confidence: int


class StridePrefetcher(Prefetcher):
    """Per-PC stride detection with LRU entry replacement."""

    name = "stride"

    def __init__(self, degree: int = 2, num_trackers: int = 64) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if num_trackers < 1:
            raise ValueError(f"num_trackers must be >= 1, got {num_trackers}")
        self.degree = degree
        self.num_trackers = num_trackers
        self._entries: "OrderedDict[int, _StrideEntry]" = OrderedDict()

    @property
    def storage_bytes(self) -> int:
        # Per entry: PC tag (~4 B) + last block (~6 B) + stride/conf (2 B).
        return self.num_trackers * 12

    def set_degree(self, degree: int) -> None:
        """Reprogram the degree register (POWER7-style, §5.2)."""
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.degree = degree

    def observe(self, pc: int, block: int, cycle: float, hit: bool) -> List[int]:
        # Training happens regardless of degree so that the ensemble's arm
        # switches find an already-warm table; only emission is gated.
        entries = self._entries
        entry = entries.get(pc)
        if entry is None:
            if len(entries) >= self.num_trackers:
                entries.popitem(last=False)
            entries[pc] = _StrideEntry(last_block=block, stride=0, confidence=0)
            return []
        entries.move_to_end(pc)
        stride = block - entry.last_block
        entry.last_block = block
        if stride == 0:
            return []
        if stride == entry.stride:
            confidence = entry.confidence + 1
            entry.confidence = 3 if confidence > 3 else confidence
        else:
            entry.stride = stride
            entry.confidence = 1
            return []
        if entry.confidence < CONFIDENCE_THRESHOLD or self.degree == 0:
            return []
        return [block + stride * i for i in range(1, self.degree + 1)]

    def reset(self) -> None:
        self._entries.clear()
