"""DRAM timing model: fixed access latency plus a bandwidth queue.

Bandwidth is modeled as a single channel that transfers one 64-byte line
every ``cycles_per_line`` core cycles. Requests that arrive while the channel
is busy queue behind it, so an aggressive prefetcher visibly delays demand
fills — the effect behind Figure 10's bandwidth-constrained results and the
§4.3 multi-core interference discussion.
"""

from __future__ import annotations

#: 64-byte line over an 8-byte DDR interface = 8 transfers per line.
TRANSFERS_PER_LINE = 8


def mtps_to_cycles_per_line(
    mtps: float, core_frequency_ghz: float = 4.0
) -> float:
    """Convert megatransfers/second into core cycles per line transfer.

    At the paper's baseline (2400 MTPS, 4 GHz core) one line occupies the
    channel for ~13.3 cycles; the constrained 150 MTPS point costs ~213.
    """
    if mtps <= 0:
        raise ValueError(f"mtps must be positive, got {mtps}")
    transfers_per_cycle = mtps * 1e6 / (core_frequency_ghz * 1e9)
    return TRANSFERS_PER_LINE / transfers_per_cycle


class DRAMModel:
    """Latency + bandwidth-queue DRAM model.

    ``accesses`` counts line fetches (demand and prefetch) and
    ``total_queue_cycles`` their summed wait for the channel; writebacks
    occupy the channel but count in neither. Pythia's bandwidth probe reads
    the two through :meth:`average_queue_delay`.
    """

    def __init__(
        self,
        latency_cycles: float = 200.0,
        mtps: float = 2400.0,
        core_frequency_ghz: float = 4.0,
    ) -> None:
        if latency_cycles < 0:
            raise ValueError(f"latency must be >= 0, got {latency_cycles}")
        self.latency_cycles = latency_cycles
        self.cycles_per_line = mtps_to_cycles_per_line(mtps, core_frequency_ghz)
        self._channel_free_at = 0.0
        self.accesses = 0
        self.total_queue_cycles = 0.0

    def access(self, cycle: float) -> float:
        """Issue one line fetch; returns the completion cycle."""
        start = cycle if cycle > self._channel_free_at else self._channel_free_at
        self.total_queue_cycles += start - cycle
        self._channel_free_at = start + self.cycles_per_line
        self.accesses += 1
        return start + self.latency_cycles

    def writeback(self) -> None:
        """Occupy the channel for one line without anyone waiting on it."""
        self._channel_free_at += self.cycles_per_line

    def average_queue_delay(self) -> float:
        """Mean cycles a fetch waited for the channel."""
        return self.total_queue_cycles / self.accesses if self.accesses else 0.0
