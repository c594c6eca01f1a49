"""Micro-Armed Bandit hardware model (§5.1, §5.4).

:class:`MicroArmedBandit` wraps a :class:`~repro.bandit.base.MABAlgorithm`
with the structures of Figure 6 — the nTable and rTable, the counter-driven
IPC reward path, and the arm-selection latency — plus the storage accounting
used in §5.4/§6.5.

The paper's latency analysis distinguishes a *naive* design that computes all
arm potentials on the critical path (~500 cycles for 11 arms) from an
*advanced* design that precomputes everything except the in-flight arm
(~50 cycles); the evaluation conservatively charges 500 cycles. During those
cycles the controlled unit keeps running with the previously selected arm,
so in simulation the latency only delays when the new arm takes effect.

:class:`PrefetchBanditController` is that contract for the prefetcher, in
the one copy every prefetch replay path drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.bandit.base import MABAlgorithm
from repro.bandit.rewards import IPCReward, PerformanceCounters
from repro.constants import SELECTION_LATENCY_CYCLES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core_model.sanitizer import StepRecord

_INF = float("inf")

#: Storage per arm: one single-precision float reward (rTable) plus one
#: unsigned-int selection count (nTable) — 8 bytes total (§5.4).
BYTES_PER_ARM = 8

#: Conservative latencies from §5.4 assuming a single non-pipelined
#: arithmetic unit with 20-cycle divide and square root.
SQRT_LATENCY_CYCLES = 20
DIV_LATENCY_CYCLES = 20
MUL_LATENCY_CYCLES = 4
ADD_LATENCY_CYCLES = 2
TABLE_READ_LATENCY_CYCLES = 1


@dataclass(frozen=True)
class BanditHardwareModel:
    """Analytic latency/storage model of the agent's microarchitecture."""

    num_arms: int

    def storage_bytes(self) -> int:
        """Total nTable + rTable storage."""
        return self.num_arms * BYTES_PER_ARM

    def per_arm_potential_latency(self) -> int:
        """Cycles to compute one arm potential (ln(n_total) amortized)."""
        return (
            2 * TABLE_READ_LATENCY_CYCLES  # nTable + rTable reads
            + DIV_LATENCY_CYCLES  # ln(n_total) / n_i
            + SQRT_LATENCY_CYCLES
            + MUL_LATENCY_CYCLES  # c * sqrt(...)
            + ADD_LATENCY_CYCLES  # r_i + bonus
        )

    def naive_selection_latency(self) -> int:
        """Sequentially compute every arm potential on the critical path."""
        return self.num_arms * self.per_arm_potential_latency()

    def advanced_selection_latency(self) -> int:
        """Only the in-flight arm's potential is on the critical path.

        The potentials of all other arms (and the best among them) are
        computed in the background while the step is still running.
        """
        compare_and_pick = ADD_LATENCY_CYCLES
        finish_reward_update = DIV_LATENCY_CYCLES + ADD_LATENCY_CYCLES
        return (
            finish_reward_update
            + self.per_arm_potential_latency()
            + compare_and_pick
        )


class MicroArmedBandit:
    """The Bandit agent: algorithm + counters + latency, as driven by a core.

    A simulator drives the agent with::

        arm = bandit.begin_step()              # arm to apply this step
        ...simulate one bandit step...
        bandit.end_step(counters, now_cycles)  # counters at the boundary

    ``active_arm(cycle)`` accounts for the selection latency: until
    ``selection_ready_cycle`` the previously selected arm remains in effect
    (§6.1: "the prefetcher and the SMT scheduler do not stall but continue
    operating with the previously selected arm").
    """

    def __init__(
        self,
        algorithm: MABAlgorithm,
        selection_latency_cycles: int = SELECTION_LATENCY_CYCLES,
    ) -> None:
        self.algorithm = algorithm
        self.selection_latency_cycles = selection_latency_cycles
        self.hardware = BanditHardwareModel(algorithm.num_arms)
        self._reward = IPCReward()
        self._current_arm: int | None = None
        self._previous_arm: int | None = None
        self.selection_ready_cycle = 0.0
        self.steps_completed = 0

    # ------------------------------------------------------------------ API

    @property
    def num_arms(self) -> int:
        return self.algorithm.num_arms

    @property
    def in_round_robin_phase(self) -> bool:
        return self.algorithm.in_round_robin_phase

    def storage_bytes(self) -> int:
        return self.hardware.storage_bytes()

    def reset_counters(self, counters: PerformanceCounters) -> None:
        """Snapshot counters at episode start (before the first step)."""
        self._reward.reset(counters)

    def begin_step(self, now_cycle: float = 0.0) -> int:
        """Select the arm to apply for the upcoming bandit step."""
        self._previous_arm = self._current_arm
        self._current_arm = self.algorithm.select_arm()
        self.selection_ready_cycle = now_cycle + self.selection_latency_cycles
        return self._current_arm

    def active_arm(self, cycle: float) -> int:
        """Arm actually in effect at ``cycle``, modeling selection latency."""
        if self._current_arm is None:
            raise RuntimeError("begin_step() has not been called")
        if cycle < self.selection_ready_cycle and self._previous_arm is not None:
            return self._previous_arm
        return self._current_arm

    def end_step(self, counters: PerformanceCounters) -> float:
        """Close the step: compute the IPC reward and train the algorithm."""
        reward = self._reward.step_reward(counters)
        self.algorithm.observe(reward)
        self.steps_completed += 1
        return reward

    def flush_step(self, counters: PerformanceCounters) -> float | None:
        """Close the trailing partial step at episode end.

        Simulation loops call :meth:`begin_step` at every boundary, so the
        final selection is still awaiting its reward when the trace runs
        out. Flushing trains the algorithm on the partial step; a step that
        covered zero cycles has no defined IPC, so the pending selection is
        retracted instead (when the algorithm supports it). Returns the
        observed reward, or ``None`` if there was nothing to flush.
        """
        if self._current_arm is None:
            return None
        if not getattr(self.algorithm, "awaiting_reward", True):
            return None
        if self._reward.elapsed_cycles(counters) > 0:
            return self.end_step(counters)
        cancel = getattr(self.algorithm, "cancel_selection", None)
        if cancel is not None:
            cancel()
        return None


class PrefetchBanditController:
    """One Micro-Armed Bandit stepping a prefetcher through a replay.

    The agent contract every prefetch replay path shares: a bandit step
    ends every ``step_l2_accesses`` L2 demand accesses (Table 6); the arm
    selected at a boundary takes effect ``selection_latency_cycles`` later,
    the previously applied arm running meanwhile (§6.1), so a latency of 0
    applies it at the boundary itself (Figure 9's BanditIdeal); and
    :meth:`finish` trains on the trailing partial step, or retracts it when
    it covered zero cycles. ``apply(arm)`` reprograms the controlled unit.

    The episode starts on a fresh core (zero counters). A replay loop calls
    :meth:`on_record` after every record::

        controller = PrefetchBanditController(algorithm, ensemble.set_arm, step)
        for record in trace:
            core.execute(record)
            controller.on_record(stats.l2_demand_accesses, core.counters())
        controller.finish(core.counters(), stats.l2_demand_accesses)

    ``step_log`` collects the sanitizer's per-step checkpoints: one at the
    first selection, one per boundary and one after :meth:`finish`.
    """

    def __init__(
        self,
        algorithm: MABAlgorithm,
        apply: Callable[[int], None],
        step_l2_accesses: int,
        selection_latency_cycles: int = SELECTION_LATENCY_CYCLES,
        step_log: Optional[List["StepRecord"]] = None,
    ) -> None:
        self.algorithm = algorithm
        self.bandit = MicroArmedBandit(algorithm, selection_latency_cycles)
        self.step_l2_accesses = step_l2_accesses
        self.step_log = step_log
        self._apply = apply
        start = PerformanceCounters()
        self.bandit.reset_counters(start)
        self.pending = self.applied = self.bandit.begin_step(0.0)
        apply(self.pending)
        #: ``(cycle, arm)`` at every selection, for Figure 7's plots.
        self.arm_trace: List[Tuple[float, int]] = [(0.0, self.pending)]
        self.next_boundary = step_l2_accesses
        self._log(start, 0)

    def on_record(
        self, l2_accesses: int, counters: PerformanceCounters
    ) -> Tuple[int, float]:
        """Advance past one replayed record; returns the next thresholds.

        The returned ``(l2_threshold, cycle_threshold)`` promise that
        another call is a no-op until the L2 demand-access count or the
        cycle counter (both monotone) reaches one of them, so a fused
        kernel may skip the calls in between.
        """
        bandit = self.bandit
        cycle = counters.cycles
        if self.pending != self.applied and cycle >= bandit.selection_ready_cycle:
            self._apply(self.pending)
            self.applied = self.pending
        if l2_accesses >= self.next_boundary:
            self.next_boundary = l2_accesses + self.step_l2_accesses
            bandit.end_step(counters)
            self.pending = bandit.begin_step(cycle)
            self.arm_trace.append((cycle, self.pending))
            self._log(counters, l2_accesses)
            if cycle >= bandit.selection_ready_cycle:
                self._apply(self.pending)
                self.applied = self.pending
        if self.pending != self.applied:
            return self.next_boundary, bandit.selection_ready_cycle
        return self.next_boundary, _INF

    def finish(self, counters: PerformanceCounters, l2_accesses: int) -> None:
        """Close the episode: flush the trailing partial step."""
        self.bandit.flush_step(counters)
        self._log(counters, l2_accesses)

    def _log(self, counters: PerformanceCounters, l2_accesses: int) -> None:
        if self.step_log is None:
            return
        from repro.core_model.sanitizer import StepRecord

        instructions = counters.committed_instructions
        cycles = counters.cycles
        self.step_log.append(StepRecord(
            step=len(self.step_log),
            instructions=instructions,
            cycles=cycles,
            ipc=instructions / cycles if cycles else 0.0,
            l2_demand_accesses=l2_accesses,
            arm=self.pending,
            reward_estimates=tuple(self.algorithm.reward_estimates()),
            selection_counts=tuple(self.algorithm.selection_counts()),
        ))
