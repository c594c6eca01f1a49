"""Bandit-controlled prefetcher ensemble (§5.2, Table 7).

An arm encodes whether the next-line prefetcher is on, the degree of the
PC-stride prefetcher, and the degree of the stream prefetcher (degree 0 means
off). The Bandit agent writes its arm selection into "programmable registers"
exactly as the POWER7 exposes prefetcher aggressiveness; here that is
:meth:`EnsemblePrefetcher.set_arm`.

The component prefetchers keep *training* on the demand stream regardless of
the active arm so that a newly selected arm is effective immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.constants import (
    NUM_STREAM_TRACKERS,
    NUM_STRIDE_TRACKERS,
    TABLE7_ARM_TABLE,
)
from repro.prefetch.base import Prefetcher
from repro.prefetch.next_line import NextLinePrefetcher
from repro.prefetch.stream import StreamPrefetcher
from repro.prefetch.stride import StridePrefetcher


@dataclass(frozen=True)
class ArmSpec:
    """One Table 7 arm: ensemble configuration."""

    next_line: bool
    stride_degree: int
    stream_degree: int

    def __post_init__(self) -> None:
        if self.stride_degree < 0 or self.stream_degree < 0:
            raise ValueError("degrees must be >= 0")

    def label(self) -> str:
        return (
            f"NL={'on' if self.next_line else 'off'}"
            f"/stride={self.stride_degree}/stream={self.stream_degree}"
        )


#: The 11 arms of Table 7, in arm-id order. The raw (next_line,
#: stride_degree, stream_degree) rows live in :data:`repro.constants.
#: TABLE7_ARM_TABLE` so the paper numbers have a single home.
TABLE7_ARMS: Tuple[ArmSpec, ...] = tuple(
    ArmSpec(next_line=nl, stride_degree=stride, stream_degree=stream)
    for nl, stride, stream in TABLE7_ARM_TABLE
)


class EnsemblePrefetcher(Prefetcher):
    """Next-line + PC-stride + stream, reconfigured by arm id."""

    name = "ensemble"

    def __init__(
        self,
        arms: Sequence[ArmSpec] = TABLE7_ARMS,
        num_stride_trackers: int = NUM_STRIDE_TRACKERS,
        num_stream_trackers: int = NUM_STREAM_TRACKERS,
    ) -> None:
        if not arms:
            raise ValueError("ensemble requires at least one arm")
        self.arms: Tuple[ArmSpec, ...] = tuple(arms)
        self.next_line = NextLinePrefetcher(enabled=False)
        self.stride = StridePrefetcher(degree=0, num_trackers=num_stride_trackers)
        self.stream = StreamPrefetcher(degree=0, num_trackers=num_stream_trackers)
        self._arm_id = 0
        self.set_arm(0)

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    @property
    def arm_id(self) -> int:
        return self._arm_id

    @property
    def storage_bytes(self) -> int:
        # The component prefetchers are "already fundamental parts of modern
        # processors" (§7.2.1); together with them the ensemble is < 2 KB.
        return (
            self.next_line.storage_bytes
            + self.stride.storage_bytes
            + self.stream.storage_bytes
        )

    def set_arm(self, arm_id: int) -> None:
        """Write the arm's configuration into the degree registers."""
        if not 0 <= arm_id < len(self.arms):
            raise ValueError(f"arm id {arm_id} out of range [0, {len(self.arms)})")
        spec = self.arms[arm_id]
        self._arm_id = arm_id
        self.next_line.enabled = spec.next_line
        self.stride.set_degree(spec.stride_degree)
        self.stream.set_degree(spec.stream_degree)

    def observe(self, pc: int, block: int, cycle: float, hit: bool) -> List[int]:
        # Every component trains on the demand stream regardless of the
        # active arm (so a newly selected arm is effective immediately);
        # the dedup pass only runs when more than one emitted candidates.
        nl = self.next_line.observe(pc, block, cycle, hit)
        st = self.stride.observe(pc, block, cycle, hit)
        sm = self.stream.observe(pc, block, cycle, hit)
        if not st and not sm:
            return nl
        candidates = list(nl)
        seen = set(nl)
        for candidate in st:
            if candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)
        for candidate in sm:
            if candidate not in seen:
                seen.add(candidate)
                candidates.append(candidate)
        return candidates

    def reset(self) -> None:
        self.stride.reset()
        self.stream.reset()
