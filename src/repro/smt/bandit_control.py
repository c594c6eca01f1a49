"""Bandit control of the SMT fetch PG policy (§5.3).

The Bandit sits *on top of* the Hill-Climbing algorithm: Hill Climbing keeps
tuning the per-thread occupancy allowance, while the Bandit switches the
whole PG policy between its six pruned arms (Table 1). The bandit step is a
number of Hill-Climbing epochs — longer during the initial round-robin phase
(``bandit step-RR``) so Hill Climbing has time to converge under each arm and
the observed reward reflects the arm's true capability. On every arm switch
the Hill-Climbing state of the outgoing arm is saved and the incoming arm's
state restored (§5.3, last paragraph).

Epoch batches run through :func:`run_epochs`, which dispatches to the fused
cycle kernel (:mod:`repro.core_model.smt_kernel`) when the pipeline is
eligible, or to the per-object loop otherwise; both paths are bit-identical.
Under ``REPRO_SANITIZE=1`` the experiment runners run both and hand each
an ``epoch_log``, which records every epoch and, for the bandit, every
step's arm and estimator state;
:func:`~repro.core_model.sanitizer.run_checked` compares the two logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.bandit.base import MABAlgorithm
from repro.bandit.hardware import MicroArmedBandit
from repro.bandit.rewards import PerformanceCounters
from repro.constants import SMT_STEP_EPOCHS, SMT_STEP_EPOCHS_RR
from repro.core_model.sanitizer import SMTStepRecord
from repro.smt.hill_climbing import HillClimbing, HillClimbingConfig
from repro.smt.pg_policy import BANDIT_PG_ARMS, PGPolicy
from repro.smt.pipeline import SMTPipeline

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    # The kernel imports the SMT package, which imports this module.
    from repro.core_model.smt_kernel import EpochHook


def _epoch_checkpoints(
    log: Optional[List[SMTStepRecord]], arm: Optional[int]
) -> Optional[EpochHook]:
    """The epoch hook that appends one sanitizer checkpoint to ``log`` per
    epoch, tagged with ``arm`` (``None`` for static runs); ``None`` when
    there is no log."""
    if log is None:
        return None

    def hook(pipeline: SMTPipeline, epoch_ipc: float) -> None:
        committed0, committed1 = pipeline.per_thread_committed()
        log.append(SMTStepRecord(
            step=len(log),
            committed0=committed0,
            committed1=committed1,
            cycles=float(pipeline.cycle),
            ipc=epoch_ipc,
            arm=arm,
        ))

    return hook


def _run_epochs_object(
    pipeline: SMTPipeline,
    hill_climbing: HillClimbing,
    epochs: int,
    epoch_cycles: int,
    epoch_hook: Optional[EpochHook] = None,
) -> None:
    """Object-path epoch loop (the kernel's semantic twin)."""
    for _ in range(epochs):
        pipeline.set_allowances(hill_climbing.allowances)
        epoch_ipc = pipeline.run(epoch_cycles)
        hill_climbing.end_epoch(epoch_ipc)
        if epoch_hook is not None:
            epoch_hook(pipeline, epoch_ipc)


def run_epochs(
    pipeline: SMTPipeline,
    hill_climbing: HillClimbing,
    epochs: int,
    epoch_cycles: int,
    epoch_hook: Optional[EpochHook] = None,
    use_kernel: Optional[bool] = None,
) -> None:
    """Run an epoch batch through the fused kernel or the object path.

    ``use_kernel=None`` auto-selects: the kernel runs when
    ``REPRO_SMT_KERNEL`` is not switched off and ``pipeline`` is a plain
    :class:`SMTPipeline` (subclasses always take the object path).
    """
    from repro.core_model.smt_kernel import kernel_eligible, run_smt_epochs_kernel

    if use_kernel is None:
        use_kernel = kernel_eligible(pipeline)
    if use_kernel:
        run_smt_epochs_kernel(
            pipeline, hill_climbing, epochs, epoch_cycles, epoch_hook
        )
    else:
        _run_epochs_object(
            pipeline, hill_climbing, epochs, epoch_cycles, epoch_hook
        )


@dataclass(frozen=True)
class SMTBanditConfig:
    """Table 6 (SMT column) step lengths, in Hill-Climbing epochs."""

    step_epochs: int = SMT_STEP_EPOCHS
    step_epochs_rr: int = SMT_STEP_EPOCHS_RR
    hill_climbing: HillClimbingConfig = field(default_factory=HillClimbingConfig)


class BanditFetchController:
    """Drives an :class:`SMTPipeline` with Bandit-selected PG policies.

    The agent is the prefetcher's :class:`MicroArmedBandit`, stepped with
    ``begin_step``/``end_step``; it reads the step reward, committed
    instructions over cycles, from the pipeline's two free-running counters.
    Its selection latency is 0: the arm selected at a step boundary applies
    at that boundary, where the paper charges 500 cycles (§6.1).
    """

    def __init__(
        self,
        pipeline: SMTPipeline,
        algorithm: MABAlgorithm,
        arms: Sequence[PGPolicy] = BANDIT_PG_ARMS,
        config: SMTBanditConfig = SMTBanditConfig(),
        use_kernel: Optional[bool] = None,
        epoch_log: Optional[List[SMTStepRecord]] = None,
    ) -> None:
        """The step reward is the paper's sum of per-thread IPCs (§6.4).
        ``use_kernel`` pins the simulation path (``None`` = auto);
        ``epoch_log`` collects the sanitizer's checkpoints (one per epoch,
        plus one per bandit step carrying the arm and estimator state)."""
        self.pipeline = pipeline
        self.arms: Tuple[PGPolicy, ...] = tuple(arms)
        self.config = config
        if algorithm.num_arms != len(self.arms):
            raise ValueError("algorithm arm count must match PG arm count")
        self.algorithm = algorithm
        self.bandit = MicroArmedBandit(algorithm, selection_latency_cycles=0)
        self.bandit.reset_counters(self._counters())
        self.hill_climbing = HillClimbing(config.hill_climbing)
        self.use_kernel = use_kernel
        self.epoch_log = epoch_log
        self._saved_hc_state: Dict[int, tuple] = {}
        self._current_arm: Optional[int] = None

    # ------------------------------------------------------------------ API

    def run_steps(self, num_steps: int) -> float:
        """Run ``num_steps`` bandit steps; returns overall IPC."""
        start_cycle = self.pipeline.cycle
        start_committed = self.pipeline.committed_total
        for _ in range(num_steps):
            self.run_one_step()
        cycles = self.pipeline.cycle - start_cycle
        committed = self.pipeline.committed_total - start_committed
        return committed / cycles if cycles else 0.0

    def run_epoch_budget(self, total_epochs: int) -> float:
        """Run bandit steps until exactly ``total_epochs`` epochs elapsed.

        Steps take their natural length (``step_epochs_rr`` during the
        algorithm's round-robin phase, ``step_epochs`` after), except that
        a trailing remainder is flushed as one short final step — its
        reward is still normalized by the cycles it actually ran, so the
        estimate is unbiased. Returns overall IPC over the whole span.
        """
        start_cycle = self.pipeline.cycle
        start_committed = self.pipeline.committed_total
        epochs_done = 0
        while epochs_done < total_epochs:
            planned = self._step_epochs(self.bandit.in_round_robin_phase)
            epochs = min(planned, total_epochs - epochs_done)
            self.run_one_step(epochs=epochs)
            epochs_done += epochs
        cycles = self.pipeline.cycle - start_cycle
        committed = self.pipeline.committed_total - start_committed
        return committed / cycles if cycles else 0.0

    def run_one_step(self, epochs: Optional[int] = None) -> float:
        """One bandit step: select arm, run its epochs, report the reward.

        ``epochs`` overrides the step length (used by
        :meth:`run_epoch_budget` to flush a trailing remainder).
        """
        # The phase must be read *before* begin_step(): selecting the last
        # round-robin arm may end the phase, and that step still has to run
        # the long RR step so every arm's initial estimate is comparable.
        in_round_robin = self.bandit.in_round_robin_phase
        pipeline = self.pipeline
        arm = self.bandit.begin_step(pipeline.cycle)
        self._apply_arm(arm)
        if epochs is None:
            epochs = self._step_epochs(in_round_robin)
        log = self.epoch_log
        run_epochs(
            pipeline, self.hill_climbing, epochs,
            self.config.hill_climbing.epoch_cycles,
            epoch_hook=_epoch_checkpoints(log, arm), use_kernel=self.use_kernel,
        )
        step_ipc = self.bandit.end_step(self._counters())
        if log is not None:
            committed0, committed1 = pipeline.per_thread_committed()
            log.append(SMTStepRecord(
                step=len(log),
                committed0=committed0,
                committed1=committed1,
                cycles=float(pipeline.cycle),
                ipc=step_ipc,
                arm=arm,
                reward_estimates=tuple(self.algorithm.reward_estimates()),
                selection_counts=tuple(self.algorithm.selection_counts()),
            ))
        return step_ipc

    # -------------------------------------------------------------- internals

    def _step_epochs(self, in_round_robin: bool) -> int:
        """A step's natural length: longer during the round-robin phase."""
        config = self.config
        return config.step_epochs_rr if in_round_robin else config.step_epochs

    def _counters(self) -> PerformanceCounters:
        return PerformanceCounters(self.pipeline.committed_total, self.pipeline.cycle)

    def _apply_arm(self, arm: int) -> None:
        if arm == self._current_arm:
            return
        if self._current_arm is not None:
            self._saved_hc_state[self._current_arm] = self.hill_climbing.state()
        saved = self._saved_hc_state.get(arm)
        if saved is not None:
            self.hill_climbing.restore(saved)
        else:
            self.hill_climbing = HillClimbing(self.config.hill_climbing)
        self._current_arm = arm
        self.pipeline.set_policy(self.arms[arm])


def run_static_policy(
    pipeline: SMTPipeline,
    policy: PGPolicy,
    epochs: int,
    hc_config: Optional[HillClimbingConfig] = None,
    use_kernel: Optional[bool] = None,
    epoch_log: Optional[List[SMTStepRecord]] = None,
) -> float:
    """Run a fixed PG policy with Hill Climbing active; returns overall IPC.

    This is the harness behind the Choi baseline, plain ICount, and the
    best-static-arm oracle of Table 9 and Figures 5/13. ``use_kernel`` and
    ``epoch_log`` mirror :class:`BanditFetchController`'s parameters.
    """
    if hc_config is None:
        hc_config = HillClimbingConfig()
    hill_climbing = HillClimbing(hc_config)
    pipeline.set_policy(policy)
    start_cycle = pipeline.cycle
    start_committed = pipeline.committed_total
    run_epochs(
        pipeline, hill_climbing, epochs, hc_config.epoch_cycles,
        epoch_hook=_epoch_checkpoints(epoch_log, None), use_kernel=use_kernel,
    )
    cycles = pipeline.cycle - start_cycle
    committed = pipeline.committed_total - start_committed
    return committed / cycles if cycles else 0.0
