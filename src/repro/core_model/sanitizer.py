"""Runtime equivalence sanitizer for the dual replay paths.

The replay engine keeps two implementations of the same semantics: the
allocation-free fused kernel (:mod:`repro.core_model.replay_kernel`) and
the object path (``TraceCore.execute`` + ``CacheHierarchy``). This module
checks that contract at run time: with ``REPRO_SANITIZE=1`` (or
``--sanitize`` on the experiment CLI), every compiled-trace replay also
runs the same trace
through the object path on a shadow copy of the stack and asserts
step-by-step equality — per-checkpoint instruction counts, cycles, IPC
and L2 demand accesses, and (for bandit runs) the per-step arm choices
and DUCB state. The first divergence aborts the run with a report naming
the step, the field, and both values.

This is a debugging/verification mode: it replays every trace twice and
checkpoints frequently, so expect roughly 2-3x the runtime. Run it after
touching any fast path; ``tests/test_differential_paths.py`` covers the
same equivalence over randomized inputs in tier-1.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core_model.trace_core import TraceCore
    from repro.workloads.compiled import CompiledTrace

#: Environment variable that switches the sanitizer on globally.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Target number of mid-run checkpoints per hook-free sanitized replay.
_CHECKPOINTS = 64


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


def _compare_stats(
    kernel_core: "TraceCore", object_core: "TraceCore", context: str
) -> None:
    """Final hierarchy-stats comparison, field by field."""
    kernel_stats = kernel_core.hierarchy.stats
    object_stats = object_core.hierarchy.stats
    for stats_field in fields(kernel_stats):
        kernel_value = getattr(kernel_stats, stats_field.name)
        object_value = getattr(object_stats, stats_field.name)
        if kernel_value != object_value:
            raise SanitizeDivergence(
                context, -1, f"stats.{stats_field.name}",
                kernel_value, object_value,
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
    kernel_mode: str = "array",
) -> None:
    """Prove every batched-kernel lane equals the object path, lane by lane.

    The lane kernel (:mod:`repro.core_model.lane_kernel`) advances N
    independent replay lanes through one fused loop; this is its dynamic
    equivalence proof. Each lane is re-run through the object path
    (``TraceCore.execute`` on a fresh stack, with a
    :class:`~repro.bandit.hardware.PrefetchBanditController` called on
    every record for bandit lanes) and compared:

    - per-checkpoint instructions / cycles / IPC / L2 demand accesses
      (same record stride the kernel checkpoints at),
    - for bandit lanes, the per-step arm choices and DUCB estimator state
      (reward estimates and selection counts, bit for bit),
    - the final hierarchy stats, the result scalars, and the arm trace.

    ``kernel_mode`` names the kernel variant under test (``"array"`` or
    ``"dict"``) so a divergence report says which implementation failed.

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
        context = f"lane_kernel[{kernel_mode}][lane={lane_index}:{kind}]"
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
        for record in records:
            core.execute(record)
            replayed += 1
            if controller is not None:
                controller.on_record(
                    stats.l2_demand_accesses, core.counters()
                )
            if replayed % stride == 0 or replayed == total:
                object_checkpoints.append(snapshot(replayed, core))

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


def run_sanitized_replay(
    core: "TraceCore",
    trace: "CompiledTrace",
    max_records: Optional[int] = None,
    shadow: Optional["TraceCore"] = None,
) -> None:
    """Replay ``trace`` on ``core`` (kernel) and ``shadow`` (object path).

    ``shadow`` must be an independent but identically configured stack;
    when ``None`` it is deep-copied from ``core`` before the replay (which
    is correct for self-contained stacks, but callers whose prefetchers
    close over external state — e.g. Pythia's bandwidth probe — must build
    and pass their own shadow).
    """
    if shadow is None:
        shadow = copy.deepcopy(core)

    total = len(trace)
    if max_records is not None and max_records < total:
        total = max_records
    stride = max(1, total // _CHECKPOINTS)

    kernel_log: List[StepRecord] = []
    seen = 0

    def checkpoint_hook(hook_core: "TraceCore") -> None:
        nonlocal seen
        seen += 1
        if seen % stride == 0 or seen == total:
            kernel_log.append(snapshot(seen, hook_core))

    core.run_compiled(
        trace, max_records=max_records, record_hook=checkpoint_hook,
        sanitize=False,
    )

    object_log: List[StepRecord] = []
    replayed = 0
    for record in trace.to_records():
        if replayed >= total:
            break
        shadow.execute(record)
        replayed += 1
        if replayed % stride == 0 or replayed == total:
            object_log.append(snapshot(replayed, shadow))

    compare_step_logs(kernel_log, object_log, context="run_compiled")
    _compare_stats(core, shadow, context="run_compiled")
