"""Trace-driven OoO core timing approximation.

The model captures the first-order effects prefetching studies depend on:

- **In-order commit at a bounded width.** Non-memory instructions retire at
  ``commit_width`` per cycle; a load cannot retire before its data returns.
- **Memory-level parallelism within the ROB window.** Loads issue at
  dispatch time, which runs ahead of commit by at most ``rob_size``
  instructions, so independent misses overlap up to the window/MSHR limits.
- **ROB-full stalls.** When a long-latency load blocks commit, dispatch
  (and hence the issue of younger loads) stalls once the window fills —
  which is what makes DRAM queueing delay visible in IPC.
- **Dependent loads.** Records flagged ``dependent`` (pointer chasing)
  cannot issue before the previous load's data returns, collapsing MLP the
  way linked-structure traversals do.

Stores are write-allocate but retire without waiting (store-buffer
semantics), matching how ChampSim-style trace simulators treat them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Iterable, Optional, Tuple

from repro.bandit.rewards import PerformanceCounters
from repro.core_model.replay_kernel import run_replay_kernel
from repro.uncore.cache import Cache
from repro.uncore.hierarchy import CacheHierarchy
from repro.workloads.trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.workloads.compiled import CompiledTrace


@dataclass(frozen=True)
class CoreConfig:
    """Core parameters (defaults = Table 4, Intel Skylake-like)."""

    rob_size: int = 256
    commit_width: int = 4
    dispatch_width: int = 6

    def __post_init__(self) -> None:
        if self.rob_size < 1 or self.commit_width < 1 or self.dispatch_width < 1:
            raise ValueError("core parameters must be positive")


class TraceCore:
    """Replays a memory trace against a hierarchy, producing cycle counts."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        config: CoreConfig = CoreConfig(),
        name: str = "core0",
    ) -> None:
        self.hierarchy = hierarchy
        self.config = config
        self.name = name
        self._commit_cost = 1.0 / config.commit_width
        self._dispatch_cost = 1.0 / config.dispatch_width
        self.instructions = 0
        self.retire_time = 0.0
        self.dispatch_time = 0.0
        self._last_load_ready = 0.0
        # Retire times of recent memory ops, for the ROB-window constraint:
        # (instruction index, retire time).
        self._window: Deque[Tuple[int, float]] = deque()
        self._anchor_index = 0
        self._anchor_retire = 0.0

    # ------------------------------------------------------------------ API

    @property
    def cycles(self) -> float:
        return self.retire_time

    @property
    def ipc(self) -> float:
        return self.instructions / self.retire_time if self.retire_time else 0.0

    def counters(self) -> PerformanceCounters:
        """Snapshot for the Bandit's IPC reward path (Figure 6d)."""
        return PerformanceCounters(
            committed_instructions=self.instructions,
            cycles=self.retire_time,
        )

    def execute(self, record: TraceRecord) -> None:
        """Advance the core over ``record`` and its preceding plain instructions."""
        gap = record.inst_gap
        if gap:
            self.instructions += gap
            self.retire_time += gap * self._commit_cost
            self.dispatch_time += gap * self._dispatch_cost

        self.instructions += 1
        index = self.instructions
        issue = self._issue_time(index)

        if record.is_write:
            self.hierarchy.store(record.pc, record.address, issue)
            self.retire_time += self._commit_cost
        else:
            if record.dependent and self._last_load_ready > issue:
                issue = self._last_load_ready
            ready = self.hierarchy.load(record.pc, record.address, issue)
            self._last_load_ready = ready
            next_retire = self.retire_time + self._commit_cost
            self.retire_time = ready if ready > next_retire else next_retire
        self._window.append((index, self.retire_time))

    def run(
        self,
        trace: Iterable[TraceRecord],
        record_hook: Optional[
            Callable[["TraceCore"], Optional[Tuple[float, float]]]
        ] = None,
    ) -> None:
        """Replay ``trace`` to completion through :meth:`execute`.

        ``record_hook(core)`` fires after every record. This is the object
        path: it ignores the thresholds a hook may return (see
        :meth:`run_compiled`), which only let the fused kernel skip calls.
        """
        for record in trace:
            self.execute(record)
            if record_hook is not None:
                record_hook(self)

    def run_compiled(
        self,
        trace: "CompiledTrace",
        record_hook: Optional[
            Callable[["TraceCore"], Optional[Tuple[float, float]]]
        ] = None,
    ) -> None:
        """Replay a compiled array-backed trace.

        A plain three-level hierarchy (plain :class:`Cache` levels, no L1
        prefetcher) replays through the fused kernel of
        :mod:`repro.core_model.replay_kernel`, without per-record objects.
        Any other hierarchy replays ``trace.to_records()`` through
        :meth:`run`. Either way the result is bit-identical to :meth:`run`
        over the equivalent object trace (counters, cycles, and hierarchy
        state); the runtime sanitizer checks that, run by run,
        from the experiment runners (see :mod:`repro.core_model.sanitizer`).

        ``record_hook(core)`` fires after each record with ``instructions``
        and ``retire_time`` (and the rest of the core state) flushed, which
        is what the bandit step loops consume; hooks must not mutate the
        core itself. A hook may return ``(l2_threshold, cycle_threshold)``
        to promise it is a no-op until ``stats.l2_demand_accesses`` or
        ``retire_time`` reaches those bounds — the fused kernel then skips
        the flush + call for the records in between (the object path
        calls the hook after every record; the promise makes that
        equivalent).

        This method leaves the cycle collector alone: the experiment
        runners pause it for the whole replay in
        :func:`~repro.core_model.sanitizer.run_checked`.
        """
        hierarchy = self.hierarchy
        if not (
            type(hierarchy) is CacheHierarchy
            and hierarchy.l1_prefetcher is None
            and type(hierarchy.l1) is Cache
            and type(hierarchy.l2) is Cache
            and type(hierarchy.llc) is Cache
        ):
            self.run(trace.to_records(), record_hook)
            return
        pcs, blocks, all_flags, gaps = trace.as_lists()
        run_replay_kernel(self, pcs, blocks, all_flags, gaps, record_hook)

    # -------------------------------------------------------------- internals

    def _issue_time(self, index: int) -> float:
        """Dispatch time for instruction ``index`` under the ROB constraint."""
        self.dispatch_time += self._dispatch_cost
        boundary = index - self.config.rob_size
        if boundary > 0:
            # Advance the anchor to the youngest memory op at/below boundary.
            while self._window and self._window[0][0] <= boundary:
                self._anchor_index, self._anchor_retire = self._window.popleft()
            floor = self._anchor_retire + max(
                0, boundary - self._anchor_index
            ) * self._commit_cost
            if floor > self.dispatch_time:
                self.dispatch_time = floor
        return self.dispatch_time
