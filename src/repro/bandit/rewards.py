"""Reward computation from hardware performance counters (Figure 6d).

The Micro-Armed Bandit uses the core's average IPC over a bandit step as its
reward. In hardware this is computed from two free-running counters — the
committed-instruction count and the cycle count — by differencing against
their values at the previous step boundary and dividing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerformanceCounters:
    """Free-running counters sampled at bandit-step boundaries."""

    committed_instructions: int = 0
    cycles: float = 0


class IPCReward:
    """Compute per-step IPC from monotonically increasing counters.

    Mirrors the arithmetic-unit data path of Figure 6(d): subtract the
    snapshot taken at the previous step boundary and divide by the step's
    cycle count.
    """

    def __init__(self) -> None:
        self._last_instructions = 0
        self._last_cycles: float = 0

    def reset(self, counters: PerformanceCounters) -> None:
        """Snapshot the counters at the start of an episode."""
        self._last_instructions = counters.committed_instructions
        self._last_cycles = counters.cycles

    def elapsed_cycles(self, counters: PerformanceCounters) -> float:
        """Cycles accumulated since the previous boundary (no snapshot)."""
        return counters.cycles - self._last_cycles

    def step_reward(self, counters: PerformanceCounters) -> float:
        """IPC since the previous boundary; advances the snapshot."""
        instructions = counters.committed_instructions - self._last_instructions
        cycles = counters.cycles - self._last_cycles
        if instructions < 0 or cycles < 0:
            raise ValueError("performance counters must be monotonic")
        self._last_instructions = counters.committed_instructions
        self._last_cycles = counters.cycles
        if cycles == 0:
            return 0.0
        return instructions / cycles
