"""SMT experiment runners.

Every runner simulates one 2-thread mix on the Table 5 pipeline. Epoch
lengths are simulation-scaled (the paper's 64k-cycle epochs become 1k by
default); the *ratio* structure of Table 6 — bandit step = 2 epochs, initial
round-robin step = 32 epochs — is configurable and defaults to a proportional
scaling that keeps total run lengths tractable in Python.

Both runners dispatch to the fused SMT kernel
(:mod:`repro.core_model.smt_kernel`) by default and fall back to the
per-object pipeline when ``REPRO_SMT_KERNEL`` is off, ``use_kernel=False``
is passed, or the pipeline is subclassed. With ``REPRO_SANITIZE=1`` every
run executes on *both* paths against independent, identically seeded
stacks and asserts per-epoch equality (per-thread committed counts,
cycles, IPC) plus — for bandit runs — bit-identical arm histories and
estimator state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bandit.base import MABAlgorithm
from repro.constants import SMT_STEP_EPOCHS
from repro.core_model.sanitizer import (
    SanitizeDivergence,
    SMTStepRecord,
    compare_step_logs,
    sanitize_enabled,
)
from repro.core_model.smt_kernel import kernel_eligible
from repro.experiments.configs import SMT_CONFIG_TABLE5, scaled_hill_climbing
from repro.smt.bandit_control import (
    BanditFetchController,
    SMTBanditConfig,
    run_static_policy,
)
from repro.smt.pg_policy import BANDIT_PG_ARMS, CHOI_POLICY, PGPolicy
from repro.smt.pipeline import RenameActivity, SMTConfig, SMTPipeline
from repro.workloads.smt import ThreadProfile


@dataclass
class SMTRunResult:
    """Outcome of one SMT mix run."""

    ipc: float
    per_thread: Tuple[int, int]
    rename: RenameActivity
    arm_history: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class SMTScale:
    """Simulation-scale knobs shared by the SMT experiments.

    The paper simulates until 150 M instructions per thread with 64k-cycle
    epochs (~2,300 epochs); the defaults here keep the Table 6 *ratios*
    (bandit step = 2 epochs) while shrinking epoch length and count so one
    mix simulates in seconds. The round-robin step is shortened in the same
    proportion as the episode.
    """

    epoch_cycles: int = 500
    total_epochs: int = 400
    step_epochs: int = SMT_STEP_EPOCHS
    step_epochs_rr: int = 2

    def __post_init__(self) -> None:
        # A zero step never advances the epoch budget, and zero cycles or
        # epochs divide by zero downstream.
        for knob in fields(self):
            value = getattr(self, knob.name)
            if value <= 0:
                raise ValueError(f"SMTScale.{knob.name} must be positive, got {value}")


DEFAULT_SMT_SCALE = SMTScale()


def _want_sanitize(use_kernel: Optional[bool], pipeline_ready: bool) -> bool:
    """Sanitize by default only when both paths are actually available."""
    return sanitize_enabled() and use_kernel is None and pipeline_ready


def run_smt_static(
    mix: Tuple[ThreadProfile, ThreadProfile],
    policy: PGPolicy = CHOI_POLICY,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    config: SMTConfig = SMT_CONFIG_TABLE5,
    seed: int = 0,
    sanitize: Optional[bool] = None,
    use_kernel: Optional[bool] = None,
    _epoch_log: Optional[List[SMTStepRecord]] = None,
) -> SMTRunResult:
    """One mix under a fixed PG policy with Hill Climbing active.

    ``sanitize=None`` defers to ``REPRO_SANITIZE``; a sanitized run
    executes the kernel and object paths on independent pipelines and
    compares their per-epoch checkpoints before returning the kernel
    result.
    """
    pipeline = SMTPipeline(list(mix), policy, config, seed=seed)
    if sanitize is None:
        sanitize = _want_sanitize(use_kernel, kernel_eligible(pipeline)) and (
            _epoch_log is None
        )
    if sanitize:
        return _run_smt_static_sanitized(mix, policy, scale, config, seed)
    hc_config = scaled_hill_climbing(scale.epoch_cycles, config=config)
    ipc = run_static_policy(
        pipeline, policy, scale.total_epochs, hc_config,
        use_kernel=use_kernel, epoch_log=_epoch_log,
    )
    return SMTRunResult(
        ipc=ipc,
        per_thread=pipeline.per_thread_committed(),
        rename=pipeline.rename_activity,
    )


def _run_smt_static_sanitized(
    mix: Tuple[ThreadProfile, ThreadProfile],
    policy: PGPolicy,
    scale: SMTScale,
    config: SMTConfig,
    seed: int,
) -> SMTRunResult:
    """Static run on both paths; returns the kernel result."""
    kernel_log: List[SMTStepRecord] = []
    result = run_smt_static(
        mix, policy, scale, config, seed,
        sanitize=False, use_kernel=True, _epoch_log=kernel_log,
    )
    object_log: List[SMTStepRecord] = []
    shadow = run_smt_static(
        mix, policy, scale, config, seed,
        sanitize=False, use_kernel=False, _epoch_log=object_log,
    )
    compare_step_logs(kernel_log, object_log, context="run_smt_static")
    if result.rename != shadow.rename:
        raise SanitizeDivergence(
            "run_smt_static", -1, "rename_activity", result.rename,
            shadow.rename,
        )
    return result


def run_smt_bandit(
    mix: Tuple[ThreadProfile, ThreadProfile],
    scale: SMTScale = DEFAULT_SMT_SCALE,
    config: SMTConfig = SMT_CONFIG_TABLE5,
    arms: Sequence[PGPolicy] = BANDIT_PG_ARMS,
    algorithm: Optional[MABAlgorithm] = None,
    seed: int = 0,
    sanitize: Optional[bool] = None,
    use_kernel: Optional[bool] = None,
    _epoch_log: Optional[List[SMTStepRecord]] = None,
) -> SMTRunResult:
    """One mix under Bandit PG-policy control (§5.3).

    The episode consumes exactly ``scale.total_epochs`` epochs for every
    algorithm: steps take their natural length (round-robin steps run
    ``step_epochs_rr`` epochs, main-loop steps ``step_epochs``) and a
    trailing remainder is flushed as one short final step, so static and
    bandit runs cover identical cycle counts.
    """
    pipeline = SMTPipeline(list(mix), arms[0], config, seed=seed)
    if sanitize is None:
        sanitize = _want_sanitize(use_kernel, kernel_eligible(pipeline)) and (
            _epoch_log is None
        )
    if sanitize:
        return _run_smt_bandit_sanitized(
            mix, scale, config, arms, algorithm, seed
        )
    controller_config = SMTBanditConfig(
        step_epochs=scale.step_epochs,
        step_epochs_rr=scale.step_epochs_rr,
        hill_climbing=scaled_hill_climbing(scale.epoch_cycles, config=config),
        seed=seed,
    )
    controller = BanditFetchController(
        pipeline, arms=arms, config=controller_config, algorithm=algorithm,
        use_kernel=use_kernel, epoch_log=_epoch_log,
    )
    ipc = controller.run_epoch_budget(scale.total_epochs)
    return SMTRunResult(
        ipc=ipc,
        per_thread=pipeline.per_thread_committed(),
        rename=pipeline.rename_activity,
        arm_history=list(controller.arm_history),
    )


def _run_smt_bandit_sanitized(
    mix: Tuple[ThreadProfile, ThreadProfile],
    scale: SMTScale,
    config: SMTConfig,
    arms: Sequence[PGPolicy],
    algorithm: Optional[MABAlgorithm],
    seed: int,
) -> SMTRunResult:
    """Bandit run on both paths; returns the kernel result.

    The caller's ``algorithm`` (when given) drives the kernel path; the
    object path runs a deep copy so both start from identical estimator
    state.
    """
    shadow_algorithm = copy.deepcopy(algorithm)
    kernel_log: List[SMTStepRecord] = []
    result = run_smt_bandit(
        mix, scale, config, arms, algorithm, seed,
        sanitize=False, use_kernel=True, _epoch_log=kernel_log,
    )
    object_log: List[SMTStepRecord] = []
    shadow = run_smt_bandit(
        mix, scale, config, arms, shadow_algorithm, seed,
        sanitize=False, use_kernel=False, _epoch_log=object_log,
    )
    compare_step_logs(kernel_log, object_log, context="run_smt_bandit")
    if result.arm_history != shadow.arm_history:
        raise SanitizeDivergence(
            "run_smt_bandit", -1, "arm_history", result.arm_history,
            shadow.arm_history,
        )
    if result.rename != shadow.rename:
        raise SanitizeDivergence(
            "run_smt_bandit", -1, "rename_activity", result.rename,
            shadow.rename,
        )
    return result


def smt_best_static_arm(
    mix: Tuple[ThreadProfile, ThreadProfile],
    arms: Sequence[PGPolicy] = BANDIT_PG_ARMS,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    config: SMTConfig = SMT_CONFIG_TABLE5,
    seed: int = 0,
) -> Tuple[int, Dict[int, float]]:
    """Exhaustive per-arm evaluation (the Table 9 oracle).

    Fans the per-arm runs out through the active execution context
    (parallel + cached when configured); results are identical to a
    serial loop because each arm run is independent and fully seeded.
    """
    # Imported here: runner imports this module at top level.
    from repro.experiments.runner import Task, run_parallel, smt_static_task

    thread_names = (mix[0].name, mix[1].name)
    tasks = [
        Task(
            smt_static_task,
            dict(
                thread_names=thread_names,
                policy_mnemonic=policy.mnemonic,
                scale=scale,
                config=config,
                seed=seed,
            ),
            label=f"{thread_names[0]}-{thread_names[1]}:arm{index}",
        )
        for index, policy in enumerate(arms)
    ]
    results = run_parallel(tasks)
    per_arm = {index: result.ipc for index, result in enumerate(results)}
    best = max(per_arm, key=per_arm.__getitem__)
    return best, per_arm
