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
eligible, or to the per-object loop otherwise; both paths are bit-identical
and the runtime sanitizer (``REPRO_SANITIZE=1``) checks them against each
other per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bandit.base import BanditConfig, MABAlgorithm
from repro.bandit.ducb import DUCB
from repro.constants import (
    SMT_EXPLORATION_C,
    SMT_GAMMA,
    SMT_STEP_EPOCHS,
    SMT_STEP_EPOCHS_RR,
)
from repro.core_model.sanitizer import SMTStepRecord
from repro.smt.hill_climbing import HillClimbing, HillClimbingConfig
from repro.smt.pg_policy import BANDIT_PG_ARMS, PGPolicy
from repro.smt.pipeline import SMTPipeline

#: Epoch-boundary callback: ``(pipeline, epoch_ipc)``, read-only pipeline.
EpochHook = Callable[[SMTPipeline, float], None]


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
    """Table 6 (SMT column): DUCB with γ=0.975, c=0.01, 6 arms."""

    gamma: float = SMT_GAMMA
    exploration_c: float = SMT_EXPLORATION_C
    step_epochs: int = SMT_STEP_EPOCHS
    step_epochs_rr: int = SMT_STEP_EPOCHS_RR
    hill_climbing: HillClimbingConfig = field(default_factory=HillClimbingConfig)
    seed: int = 0


class BanditFetchController:
    """Drives an :class:`SMTPipeline` with Bandit-selected PG policies."""

    def __init__(
        self,
        pipeline: SMTPipeline,
        arms: Sequence[PGPolicy] = BANDIT_PG_ARMS,
        config: SMTBanditConfig = SMTBanditConfig(),
        algorithm: Optional[MABAlgorithm] = None,
        reward_metric=None,
        use_kernel: Optional[bool] = None,
        epoch_log: Optional[List[SMTStepRecord]] = None,
    ) -> None:
        """``reward_metric`` is an :data:`repro.smt.rewards.SMTRewardMetric`;
        the default is the paper's sum-of-IPCs (§6.4). ``use_kernel`` pins
        the simulation path (``None`` = auto); ``epoch_log`` collects
        sanitizer checkpoints (one per epoch, plus one per bandit step
        carrying the arm and estimator state)."""
        self.pipeline = pipeline
        self.arms: Tuple[PGPolicy, ...] = tuple(arms)
        self.config = config
        if reward_metric is None:
            from repro.smt.rewards import total_ipc

            reward_metric = total_ipc()
        self.reward_metric = reward_metric
        if algorithm is None:
            algorithm = DUCB(
                BanditConfig(
                    num_arms=len(self.arms),
                    gamma=config.gamma,
                    exploration_c=config.exploration_c,
                    seed=config.seed,
                )
            )
        if algorithm.num_arms != len(self.arms):
            raise ValueError("algorithm arm count must match PG arm count")
        self.algorithm = algorithm
        self.hill_climbing = HillClimbing(config.hill_climbing)
        self.use_kernel = use_kernel
        self.epoch_log = epoch_log
        self._saved_hc_state: Dict[int, tuple] = {}
        self._current_arm: Optional[int] = None
        self.arm_history: List[int] = []

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
        reward is still normalized by the epochs it actually ran, so the
        estimate is unbiased. Returns overall IPC over the whole span.
        """
        start_cycle = self.pipeline.cycle
        start_committed = self.pipeline.committed_total
        epochs_done = 0
        while epochs_done < total_epochs:
            planned = (
                self.config.step_epochs_rr
                if self.algorithm.in_round_robin_phase
                else self.config.step_epochs
            )
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
        # The phase must be read *before* select_arm(): selecting the last
        # round-robin arm may end the phase, and that step still has to run
        # the long RR step so every arm's initial estimate is comparable.
        in_round_robin = self.algorithm.in_round_robin_phase
        arm = self.algorithm.select_arm()
        self._apply_arm(arm)
        if epochs is None:
            epochs = (
                self.config.step_epochs_rr
                if in_round_robin
                else self.config.step_epochs
            )
        step_ipc = self._run_epochs(epochs)
        self.algorithm.observe(step_ipc)
        self.arm_history.append(arm)
        log = self.epoch_log
        if log is not None:
            committed0, committed1 = self.pipeline.per_thread_committed()
            log.append(SMTStepRecord(
                step=len(log),
                committed0=committed0,
                committed1=committed1,
                cycles=float(self.pipeline.cycle),
                ipc=step_ipc,
                arm=arm,
                reward_estimates=tuple(self.algorithm.reward_estimates()),
                selection_counts=tuple(self.algorithm.selection_counts()),
            ))
        return step_ipc

    # -------------------------------------------------------------- internals

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

    def _epoch_hook(self, pipeline: SMTPipeline, epoch_ipc: float) -> None:
        log = self.epoch_log
        if log is None:
            return
        committed0, committed1 = pipeline.per_thread_committed()
        log.append(SMTStepRecord(
            step=len(log),
            committed0=committed0,
            committed1=committed1,
            cycles=float(pipeline.cycle),
            ipc=epoch_ipc,
            arm=self._current_arm,
        ))

    def _run_epochs(self, epochs: int) -> float:
        epoch_cycles = self.config.hill_climbing.epoch_cycles
        start = self.pipeline.per_thread_committed()
        hook = self._epoch_hook if self.epoch_log is not None else None
        run_epochs(
            self.pipeline, self.hill_climbing, epochs, epoch_cycles,
            epoch_hook=hook, use_kernel=self.use_kernel,
        )
        end = self.pipeline.per_thread_committed()
        deltas = [after - before for before, after in zip(start, end)]
        return self.reward_metric(deltas, epochs * epoch_cycles)


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
    epoch_hook: Optional[EpochHook] = None
    if epoch_log is not None:
        log = epoch_log

        def epoch_hook(hook_pipeline: SMTPipeline, epoch_ipc: float) -> None:
            committed0, committed1 = hook_pipeline.per_thread_committed()
            log.append(SMTStepRecord(
                step=len(log),
                committed0=committed0,
                committed1=committed1,
                cycles=float(hook_pipeline.cycle),
                ipc=epoch_ipc,
            ))

    run_epochs(
        pipeline, hill_climbing, epochs, hc_config.epoch_cycles,
        epoch_hook=epoch_hook, use_kernel=use_kernel,
    )
    cycles = pipeline.cycle - start_cycle
    committed = pipeline.committed_total - start_committed
    return committed / cycles if cycles else 0.0
