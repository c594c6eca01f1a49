"""SMT experiment runners.

Every runner simulates one 2-thread mix on the Table 5 pipeline. Epoch
lengths are simulation-scaled (the paper's 64k-cycle epochs become 1k by
default); the *ratio* structure of Table 6 — bandit step = 2 epochs, initial
round-robin step = 32 epochs — is configurable and defaults to a proportional
scaling that keeps total run lengths tractable in Python.

Both runners dispatch to the fused SMT kernel
(:mod:`repro.core_model.smt_kernel`) by default and fall back to the
per-object pipeline when ``REPRO_SMT_KERNEL`` is off or ``use_kernel=False``
is passed. Each defines one ``run(reference, log, ...)`` that builds a
fresh, identically seeded pipeline, and hands it to
:func:`~repro.core_model.sanitizer.run_checked`: with ``REPRO_SANITIZE=1``
a kernel run also runs on the object path, and the two must agree on
every epoch and bandit-step record (per-thread committed counts, cycles,
IPC, arm and estimator state) and on every field of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

from repro.bandit.base import MABAlgorithm
from repro.constants import SMT_STEP_EPOCHS
from repro.core_model.sanitizer import SMTStepRecord, run_checked
from repro.core_model.smt_kernel import kernel_enabled
from repro.experiments.configs import (
    SMT_CONFIG_TABLE5,
    scaled_hill_climbing,
    smt_bandit_algorithm,
)
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


def run_smt_static(
    mix: Tuple[ThreadProfile, ThreadProfile],
    policy: PGPolicy = CHOI_POLICY,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    config: SMTConfig = SMT_CONFIG_TABLE5,
    seed: int = 0,
    use_kernel: Optional[bool] = None,
) -> SMTRunResult:
    """One mix under a fixed PG policy with Hill Climbing active."""

    def run(reference: bool, log: Optional[List[SMTStepRecord]]) -> SMTRunResult:
        pipeline = SMTPipeline(list(mix), policy, config, seed=seed)
        ipc = run_static_policy(
            pipeline, policy, scale.total_epochs,
            scaled_hill_climbing(scale.epoch_cycles, config=config),
            use_kernel=False if reference else use_kernel, epoch_log=log,
        )
        return SMTRunResult(
            ipc=ipc,
            per_thread=pipeline.per_thread_committed(),
            rename=pipeline.rename_activity,
        )

    return run_checked(
        "run_smt_static", use_kernel is None and kernel_enabled(), run
    )


def run_smt_bandit(
    mix: Tuple[ThreadProfile, ThreadProfile],
    scale: SMTScale = DEFAULT_SMT_SCALE,
    config: SMTConfig = SMT_CONFIG_TABLE5,
    arms: Sequence[PGPolicy] = BANDIT_PG_ARMS,
    algorithm: Optional[MABAlgorithm] = None,
    seed: int = 0,
    use_kernel: Optional[bool] = None,
) -> SMTRunResult:
    """One mix under Bandit PG-policy control (§5.3).

    ``algorithm`` defaults to :func:`smt_bandit_algorithm` over ``arms``.
    The episode consumes exactly ``scale.total_epochs`` epochs for every
    algorithm: steps take their natural length (round-robin steps run
    ``step_epochs_rr`` epochs, main-loop steps ``step_epochs``) and a
    trailing remainder is flushed as one short final step, so static and
    bandit runs cover identical cycle counts.
    """

    def run(
        reference: bool,
        log: Optional[List[SMTStepRecord]],
        algorithm: Optional[MABAlgorithm],
    ) -> SMTRunResult:
        if algorithm is None:
            algorithm = smt_bandit_algorithm(seed, len(arms))
        pipeline = SMTPipeline(list(mix), arms[0], config, seed=seed)
        controller = BanditFetchController(
            pipeline,
            algorithm,
            arms=arms,
            config=SMTBanditConfig(
                step_epochs=scale.step_epochs,
                step_epochs_rr=scale.step_epochs_rr,
                hill_climbing=scaled_hill_climbing(
                    scale.epoch_cycles, config=config
                ),
            ),
            use_kernel=False if reference else use_kernel,
            epoch_log=log,
        )
        ipc = controller.run_epoch_budget(scale.total_epochs)
        return SMTRunResult(
            ipc=ipc,
            per_thread=pipeline.per_thread_committed(),
            rename=pipeline.rename_activity,
            arm_history=list(algorithm.selection_history),
        )

    return run_checked(
        "run_smt_bandit", use_kernel is None and kernel_enabled(), run,
        algorithm,
    )
