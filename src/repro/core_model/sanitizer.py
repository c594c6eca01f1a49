"""Runtime equivalence sanitizer for the dual simulation paths.

Each fast path keeps a reference implementation of the same semantics:
the fused replay kernel (:mod:`repro.core_model.replay_kernel`) has the
object path (``TraceCore.execute`` + ``CacheHierarchy``), and the SMT
cycle kernel (:mod:`repro.core_model.smt_kernel`) has the per-object
``SMTPipeline``. This module checks that contract at run time: with
``REPRO_SANITIZE=1`` (or ``--sanitize`` on the experiment CLI), every
runner call goes through :func:`run_checked`, which runs the fast path
and the reference on fresh stacks and asserts that both record the same
checkpoints (per-1/64-trace instructions/cycles/IPC/L2 accesses for a
hook-free replay, each bandit step's arm, counters and estimator state,
every SMT epoch) and return the same result, field by field. The first
divergence aborts the run with a report naming the step, the field, and
both values.

This is a debugging/verification mode: it runs everything twice and
checkpoints frequently, so expect roughly 2-3x the runtime. Run it after
touching any fast path; ``tests/test_differential_paths.py`` covers the
same equivalence over randomized inputs in tier-1.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, fields, is_dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple, TypeVar,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core_model.trace_core import TraceCore
    from repro.workloads.compiled import CompiledTrace

#: Environment variable that switches the sanitizer on globally.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Target number of mid-run checkpoints per hook-free sanitized replay.
_CHECKPOINTS = 64

_Result = TypeVar("_Result")


def sanitize_enabled() -> bool:
    """Is ``REPRO_SANITIZE`` set to a truthy value?"""
    # The sanitizer only *checks* dual-path equivalence (and raises on
    # divergence); it never changes what a task returns.
    # repro: cache-invariant[REPRO_SANITIZE]
    value = os.environ.get(SANITIZE_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class StepRecord:
    """One comparison checkpoint from either replay path.

    For hook-free replays ``step`` counts records; for bandit runs it
    counts bandit steps (with ``-1`` marking the post-flush final state).
    The bandit-only fields stay ``None`` in hook-free replays.
    """

    step: int
    instructions: int
    cycles: float
    ipc: float
    l2_demand_accesses: int
    arm: Optional[int] = None
    reward_estimates: Optional[Tuple[float, ...]] = None
    selection_counts: Optional[Tuple[float, ...]] = None


@dataclass(frozen=True)
class SMTStepRecord:
    """One comparison checkpoint from either SMT simulation path.

    For static runs ``step`` counts Hill-Climbing epochs. For bandit runs
    the log interleaves per-epoch records with one per-bandit-step record
    (the latter carries the chosen arm and, for algorithms that expose
    them, the estimator state, so DUCB estimates are compared
    bit-for-bit). The bandit-only fields stay ``None`` in static runs.
    """

    step: int
    committed0: int
    committed1: int
    cycles: float
    ipc: float
    arm: Optional[int] = None
    reward_estimates: Optional[Tuple[float, ...]] = None
    selection_counts: Optional[Tuple[float, ...]] = None


#: Any checkpoint record type :func:`compare_step_logs` accepts.
AnyStepRecord = Union[StepRecord, SMTStepRecord]


class SanitizeDivergence(AssertionError):
    """The two replay paths disagreed; carries the first divergence."""

    def __init__(
        self,
        context: str,
        step: int,
        field_name: str,
        kernel_value: object,
        object_value: object,
    ) -> None:
        self.context = context
        self.step = step
        self.field_name = field_name
        self.kernel_value = kernel_value
        self.object_value = object_value
        super().__init__(
            f"sanitize[{context}]: replay paths diverged at step {step}, "
            f"field {field_name!r}: kernel path produced "
            f"{kernel_value!r}, object path produced {object_value!r}"
        )


def compare_step_logs(
    kernel_log: Sequence[AnyStepRecord],
    object_log: Sequence[AnyStepRecord],
    context: str,
) -> None:
    """Raise :class:`SanitizeDivergence` at the first differing field.

    Works for any checkpoint record dataclass (prefetch ``StepRecord``,
    SMT ``SMTStepRecord``): fields are taken from the kernel-side record.
    """
    for kernel_step, object_step in zip(kernel_log, object_log):
        for record_field in fields(kernel_step):
            kernel_value = getattr(kernel_step, record_field.name)
            object_value = getattr(object_step, record_field.name)
            if kernel_value != object_value:
                raise SanitizeDivergence(
                    context, kernel_step.step, record_field.name,
                    kernel_value, object_value,
                )
    if len(kernel_log) != len(object_log):
        raise SanitizeDivergence(
            context, min(len(kernel_log), len(object_log)),
            "checkpoint count", len(kernel_log), len(object_log),
        )


def snapshot(step: int, core: "TraceCore") -> StepRecord:
    """Checkpoint the core-visible state both paths must agree on."""
    return StepRecord(
        step=step,
        instructions=core.instructions,
        cycles=core.retire_time,
        ipc=core.ipc,
        l2_demand_accesses=core.hierarchy.stats.l2_demand_accesses,
    )


def verify_lane_batch(
    trace: "CompiledTrace",
    lanes: Sequence[object],
    results: Sequence[object],
    checkpoint_logs: Sequence[Sequence[StepRecord]],
    step_logs: dict,
    hierarchy_config: object,
    core_config: object,
    params: object,
) -> None:
    """Prove every batched-kernel lane equals the object path, lane by lane.

    The lane kernel (:mod:`repro.core_model.lane_kernel`) advances the
    distinct lanes of a batch through one fused loop and hands each copy
    of a lane that lane's result; this is its dynamic equivalence proof.
    ``lanes`` are the requested lanes, and ``results``, ``checkpoint_logs``
    and ``step_logs`` are indexed by requested lane. Every requested lane,
    copies included, is re-run through the object path with its own seed
    (``TraceCore.run`` on a fresh stack, with a
    :class:`~repro.bandit.hardware.PrefetchBanditController` called on
    every record for bandit lanes), so a copy whose own replay would differ
    fails here. Each is compared on:

    - per-checkpoint instructions / cycles / IPC / L2 demand accesses
      (same record stride the kernel checkpoints at),
    - for bandit lanes, the per-step arm choices and DUCB estimator state
      (reward estimates and selection counts, bit for bit),
    - the final hierarchy stats, the result scalars, and the arm trace.

    Raises :class:`SanitizeDivergence` naming the lane, step and field at
    the first disagreement.
    """
    # Function-local imports: sanitizer is imported by trace_core and the
    # experiment runners, so the experiment/uncore layers cannot be
    # imported at module scope without a cycle.
    from repro.bandit.hardware import PrefetchBanditController
    from repro.core_model.trace_core import TraceCore
    from repro.experiments.configs import prefetch_bandit_algorithm
    from repro.prefetch.ensemble import EnsemblePrefetcher
    from repro.uncore.hierarchy import CacheHierarchy

    records = trace.to_records()
    total = len(records)
    stride = max(1, total // _CHECKPOINTS)

    for lane_index, lane in enumerate(lanes):
        kind = lane.kind  # type: ignore[attr-defined]
        context = f"lane_kernel[lane={lane_index}:{kind}]"
        ensemble = EnsemblePrefetcher()
        if kind == "arm":
            ensemble.set_arm(lane.arm)  # type: ignore[attr-defined]
        hierarchy = CacheHierarchy(
            hierarchy_config,
            l2_prefetcher=None if kind == "none" else ensemble,
        )
        core = TraceCore(hierarchy, core_config)
        stats = hierarchy.stats

        object_steps: List[StepRecord] = []
        controller = None
        if kind == "bandit":
            controller = PrefetchBanditController(
                prefetch_bandit_algorithm(
                    seed=lane.seed, params=params  # type: ignore[attr-defined]
                ),
                ensemble.set_arm,
                params.step_l2_accesses,
                params.selection_latency_cycles,
                step_log=object_steps,
            )

        object_checkpoints: List[StepRecord] = []
        replayed = 0

        def hook(hook_core: "TraceCore") -> None:
            nonlocal replayed
            replayed += 1
            if controller is not None:
                controller.on_record(
                    stats.l2_demand_accesses, hook_core.counters()
                )
            if replayed % stride == 0 or replayed == total:
                object_checkpoints.append(snapshot(replayed, hook_core))

        core.run(records, hook)

        if controller is not None:
            controller.finish(core.counters(), stats.l2_demand_accesses)
        hierarchy.finalize()

        compare_step_logs(
            checkpoint_logs[lane_index], object_checkpoints, context=context
        )
        if kind == "bandit":
            compare_step_logs(
                step_logs.get(lane_index, []), object_steps,
                context=f"{context}:bandit-step",
            )

        result = results[lane_index]
        for name, object_value in (
            ("ipc", core.ipc),
            ("instructions", core.instructions),
            ("cycles", core.cycles),
        ):
            kernel_value = getattr(result, name)
            if kernel_value != object_value:
                raise SanitizeDivergence(
                    context, -1, name, kernel_value, object_value
                )
        for stats_field in fields(stats):
            kernel_value = getattr(result.stats, stats_field.name)
            object_value = getattr(stats, stats_field.name)
            if kernel_value != object_value:
                raise SanitizeDivergence(
                    context, -1, f"stats.{stats_field.name}",
                    kernel_value, object_value,
                )
        if controller is not None:
            history = list(controller.algorithm.selection_history)
            if result.arm_history != history:
                raise SanitizeDivergence(
                    context, -1, "arm_history", result.arm_history, history,
                )
            if result.arm_trace != controller.arm_trace:
                raise SanitizeDivergence(
                    context, -1, "arm_trace",
                    result.arm_trace, controller.arm_trace,
                )


def run_checked(
    context: str,
    eligible: bool,
    run: Callable[..., _Result],
    *inputs: Any,
) -> _Result:
    """Run ``run`` on the fast path, and under the sanitizer on both paths.

    ``run(reference, log, *inputs)`` builds a fresh stack, simulates on the
    fast path (``reference`` false) or the reference path (true), appends
    its checkpoints to ``log`` when that is a list, and returns a dataclass
    result. When ``eligible`` holds (a reference path exists that the fast
    call does not already take) and ``REPRO_SANITIZE`` is on, the fast run
    gets ``inputs`` and the reference run deep copies taken before either
    starts; their logs must match (:func:`compare_step_logs`) and so must
    their results, field by field into nested dataclasses. The fast result
    is returned, so a sanitized call returns what a plain one does.
    """
    if not (eligible and sanitize_enabled()):
        return run(False, None, *inputs)
    copies = copy.deepcopy(inputs)
    fast_log: List[AnyStepRecord] = []
    fast = run(False, fast_log, *inputs)
    reference_log: List[AnyStepRecord] = []
    reference = run(True, reference_log, *copies)
    compare_step_logs(fast_log, reference_log, context)
    _compare_fields(fast, reference, context, "")
    return fast


def _compare_fields(
    fast: Any, reference: Any, context: str, prefix: str
) -> None:
    """Raise at the first differing field, naming its dotted path."""
    for result_field in fields(fast):
        name = prefix + result_field.name
        fast_value = getattr(fast, result_field.name)
        reference_value = getattr(reference, result_field.name)
        if is_dataclass(fast_value):
            _compare_fields(fast_value, reference_value, context, name + ".")
        elif fast_value != reference_value:
            raise SanitizeDivergence(
                context, -1, name, fast_value, reference_value
            )
