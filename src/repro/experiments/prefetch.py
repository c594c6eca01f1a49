"""Prefetching experiment runners (single-core and 4-core).

The runners replay a workload trace through the trace-driven core and
hierarchy with a chosen prefetcher configuration:

- :func:`run_fixed_prefetcher` — any named comparator (none, stride, bop,
  mlop, bingo, pythia, ipcp) or a fixed ensemble arm.
- :func:`run_bandit_prefetch` — the Micro-Armed Bandit driving the ensemble:
  one bandit step per 1,000 L2 demand accesses (Table 6), IPC reward from
  the core's counters, and the conservative 500-cycle selection latency
  (the previously selected arm stays in effect until it elapses, §6.1).
- :func:`best_static_arm` — the per-application oracle of §6.4.
- :func:`run_multicore_fixed` / :func:`run_multicore_bandit` — the 4-core
  experiments of §7.2.3 with per-core bandits and the §4.3 round-robin
  restart.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bandit.base import MABAlgorithm
from repro.bandit.hardware import PrefetchBanditController
from repro.core_model.multicore import MulticoreSystem
from repro.core_model.sanitizer import (
    StepRecord,
    compare_step_logs,
    sanitize_enabled,
)
from repro.core_model.trace_core import CoreConfig, TraceCore
from repro.experiments.configs import (
    BASELINE_HIERARCHY_CONFIG,
    CORE_CONFIG_TABLE4,
    PREFETCH_BANDIT_CONFIG,
    PrefetchBanditParams,
    prefetch_bandit_algorithm,
)
from repro.prefetch.base import Prefetcher
from repro.prefetch.bingo import BingoPrefetcher
from repro.prefetch.bop import BOPrefetcher
from repro.prefetch.ensemble import EnsemblePrefetcher
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.prefetch.ipcp import IPCPPrefetcher
from repro.prefetch.mlop import MLOPPrefetcher
from repro.prefetch.pythia import PythiaPrefetcher
from repro.uncore.hierarchy import CacheHierarchy, HierarchyConfig, HierarchyStats
from repro.workloads.compiled import CompiledTrace
from repro.workloads.trace import TraceRecord

#: Runners accept either representation; compiled traces replay through the
#: allocation-free kernel, object traces through the compatibility path.
TraceInput = Union[Sequence[TraceRecord], CompiledTrace]


@dataclass
class PrefetchRunResult:
    """Outcome of one trace replay."""

    ipc: float
    instructions: int
    cycles: float
    stats: HierarchyStats
    arm_history: List[int] = field(default_factory=list)
    #: (cycle, arm) samples for exploration plots (Figure 7).
    arm_trace: List[Tuple[float, int]] = field(default_factory=list)
    #: Trace records replayed (throughput denominator for telemetry).
    records: int = 0


def _replay(
    core: TraceCore,
    trace: TraceInput,
    shadow_factory: Optional[Callable[[], TraceCore]] = None,
) -> None:
    """Replay ``trace`` on ``core`` via the fastest applicable kernel.

    Under ``REPRO_SANITIZE=1``, compiled replays also run the object path
    on a shadow stack and assert equivalence. ``shadow_factory`` builds
    that stack; runners whose prefetchers close over external state (the
    Pythia bandwidth probe) must provide it, because a deep copy of the
    core would leave the copied prefetcher probing the *original*
    hierarchy.
    """
    if isinstance(trace, CompiledTrace):
        if shadow_factory is not None and sanitize_enabled():
            core.run_compiled(trace, sanitize=True, shadow=shadow_factory())
        else:
            core.run_compiled(trace)
    else:
        core.run(trace)


def make_prefetcher(
    name: str, hierarchy_holder: Optional[list] = None
) -> Optional[Prefetcher]:
    """Build a comparator prefetcher by name.

    ``hierarchy_holder`` is a one-element list the runner fills with the
    hierarchy after construction; Pythia uses it for its bandwidth probe.
    """
    if name == "none":
        return None
    if name == "stride":
        return IPStridePrefetcher()
    if name == "bop":
        return BOPrefetcher()
    if name == "mlop":
        return MLOPPrefetcher()
    if name == "bingo":
        return BingoPrefetcher()
    if name == "ipcp":
        return IPCPPrefetcher()
    if name == "pythia":
        probe = _make_bandwidth_probe(hierarchy_holder)
        return PythiaPrefetcher(bandwidth_probe=probe)
    raise ValueError(f"unknown prefetcher {name!r}")


def _make_bandwidth_probe(hierarchy_holder: Optional[list]) -> Callable[[], float]:
    def probe() -> float:
        if not hierarchy_holder:
            return 0.0
        hierarchy: CacheHierarchy = hierarchy_holder[0]
        dram = hierarchy.dram
        # Treat an average queue delay of more than 4 line-times as high usage.
        return 1.0 if dram.average_queue_delay() > 4 * dram.cycles_per_line else 0.0

    return probe


def run_fixed_prefetcher(
    trace: TraceInput,
    prefetcher_name: str = "none",
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
    l1_prefetcher: Optional[Prefetcher] = None,
) -> PrefetchRunResult:
    """Replay ``trace`` with a fixed comparator prefetcher at the L2."""

    def build_core(l1: Optional[Prefetcher]) -> TraceCore:
        holder: list = []
        prefetcher = make_prefetcher(prefetcher_name, holder)
        built = CacheHierarchy(
            hierarchy_config, l2_prefetcher=prefetcher, l1_prefetcher=l1
        )
        holder.append(built)
        return TraceCore(built, core_config)

    core = build_core(l1_prefetcher)
    hierarchy = core.hierarchy
    _replay(
        core, trace,
        shadow_factory=lambda: build_core(copy.deepcopy(l1_prefetcher)),
    )
    hierarchy.finalize()
    return PrefetchRunResult(
        ipc=core.ipc,
        instructions=core.instructions,
        cycles=core.cycles,
        stats=hierarchy.stats,
        records=len(trace),
    )


def run_fixed_arm(
    trace: TraceInput,
    arm: int,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
) -> PrefetchRunResult:
    """Replay ``trace`` with one ensemble arm held for the whole run."""

    def build_core() -> TraceCore:
        ensemble = EnsemblePrefetcher()
        ensemble.set_arm(arm)
        return TraceCore(
            CacheHierarchy(hierarchy_config, l2_prefetcher=ensemble),
            core_config,
        )

    core = build_core()
    hierarchy = core.hierarchy
    _replay(core, trace, shadow_factory=build_core)
    hierarchy.finalize()
    return PrefetchRunResult(
        ipc=core.ipc,
        instructions=core.instructions,
        cycles=core.cycles,
        stats=hierarchy.stats,
        arm_history=[arm],
        records=len(trace),
    )


def best_static_arm(
    trace: TraceInput,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
    num_arms: Optional[int] = None,
) -> Tuple[int, Dict[int, float]]:
    """Exhaustively evaluate every arm; returns (best arm, per-arm IPC)."""
    total_arms = num_arms if num_arms is not None else EnsemblePrefetcher().num_arms
    per_arm: Dict[int, float] = {}
    for arm in range(total_arms):
        per_arm[arm] = run_fixed_arm(trace, arm, hierarchy_config, core_config).ipc
    best = max(per_arm, key=per_arm.get)
    return best, per_arm


def run_bandit_prefetch(
    trace: TraceInput,
    algorithm: Optional[MABAlgorithm] = None,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
    params: PrefetchBanditParams = PREFETCH_BANDIT_CONFIG,
    seed: int = 0,
    ideal_latency: bool = False,
    l1_prefetcher: Optional[Prefetcher] = None,
    sanitize: Optional[bool] = None,
    _step_log: Optional[List[StepRecord]] = None,
) -> PrefetchRunResult:
    """Replay ``trace`` with the Micro-Armed Bandit driving the ensemble.

    ``ideal_latency`` removes the 500-cycle selection latency (the
    *BanditIdeal* configuration of Figure 9). ``l1_prefetcher`` optionally
    adds a fixed L1 prefetcher underneath (Figure 12's Stride_Bandit).

    ``sanitize`` (default: ``$REPRO_SANITIZE``, for compiled traces) runs
    the trace through *both* replay paths — the fused kernel with the
    record hook, and the object loop on an independent shadow stack — and
    asserts that every bandit step is identical across them: arm choices,
    step-boundary counters, and the DUCB reward estimates and selection
    counts. ``_step_log`` is the internal per-step capture those two runs
    compare; callers should not pass it.
    """
    if sanitize is None:
        sanitize = (
            sanitize_enabled()
            and isinstance(trace, CompiledTrace)
            and _step_log is None
        )
    if sanitize:
        return _run_bandit_sanitized(
            trace, algorithm, hierarchy_config, core_config, params,
            seed, ideal_latency, l1_prefetcher,
        )
    if algorithm is None:
        algorithm = prefetch_bandit_algorithm(seed=seed, params=params)
    ensemble = EnsemblePrefetcher()
    hierarchy = CacheHierarchy(
        hierarchy_config, l2_prefetcher=ensemble, l1_prefetcher=l1_prefetcher
    )
    core = TraceCore(hierarchy, core_config)
    stats = hierarchy.stats
    controller = PrefetchBanditController(
        algorithm, ensemble.set_arm, params.step_l2_accesses,
        0 if ideal_latency else params.selection_latency_cycles,
        step_log=_step_log,
    )
    if isinstance(trace, CompiledTrace):
        # The fused kernel skips the hook between the thresholds it returns.
        core.run_compiled(
            trace,
            record_hook=lambda hook_core: controller.on_record(
                stats.l2_demand_accesses, hook_core.counters()
            ),
            sanitize=False,
        )
    else:
        for record in trace:
            core.execute(record)
            controller.on_record(stats.l2_demand_accesses, core.counters())
    controller.finish(core.counters(), stats.l2_demand_accesses)
    hierarchy.finalize()
    return PrefetchRunResult(
        ipc=core.ipc,
        instructions=core.instructions,
        cycles=core.cycles,
        stats=stats,
        arm_history=list(algorithm.selection_history),
        arm_trace=controller.arm_trace,
        records=len(trace),
    )


def _run_bandit_sanitized(
    trace: TraceInput,
    algorithm: Optional[MABAlgorithm],
    hierarchy_config: HierarchyConfig,
    core_config: CoreConfig,
    params: PrefetchBanditParams,
    seed: int,
    ideal_latency: bool,
    l1_prefetcher: Optional[Prefetcher],
) -> PrefetchRunResult:
    """Run both bandit replay paths and assert per-step equivalence.

    The kernel-path run goes first with the caller's objects; the object-
    path run uses independent copies (a deep copy of ``algorithm`` taken
    *before* the first run trains it, and a fresh hierarchy stack), so the
    caller's result is exactly what the unsanitized call would return.
    """
    if not isinstance(trace, CompiledTrace):
        raise ValueError("sanitized bandit replay requires a CompiledTrace")
    shadow_algorithm = copy.deepcopy(algorithm)
    shadow_l1 = copy.deepcopy(l1_prefetcher)

    kernel_log: List[StepRecord] = []
    result = run_bandit_prefetch(
        trace, algorithm, hierarchy_config, core_config, params,
        seed=seed, ideal_latency=ideal_latency, l1_prefetcher=l1_prefetcher,
        sanitize=False, _step_log=kernel_log,
    )
    object_log: List[StepRecord] = []
    run_bandit_prefetch(
        trace.to_records(), shadow_algorithm, hierarchy_config, core_config,
        params, seed=seed, ideal_latency=ideal_latency,
        l1_prefetcher=shadow_l1, sanitize=False, _step_log=object_log,
    )
    compare_step_logs(kernel_log, object_log, context="run_bandit_prefetch")
    return result


# --------------------------------------------------------------------- 4-core


def run_multicore_fixed(
    traces: Sequence[Sequence[TraceRecord]],
    prefetcher_name: str = "none",
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
) -> Tuple[float, MulticoreSystem]:
    """4-core run with one independent comparator prefetcher per core."""
    holders: List[list] = [[] for _ in traces]
    prefetchers = [
        make_prefetcher(prefetcher_name, holders[index])
        for index in range(len(traces))
    ]
    system = MulticoreSystem(
        len(traces), hierarchy_config, core_config, prefetchers
    )
    for index, holder in enumerate(holders):
        holder.append(system.hierarchies[index])
    system.run(traces)
    return system.total_ipc(), system


def run_multicore_bandit(
    traces: Sequence[Sequence[TraceRecord]],
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
    params: PrefetchBanditParams = PREFETCH_BANDIT_CONFIG,
    seed: int = 0,
    rr_restart: bool = True,
) -> Tuple[float, MulticoreSystem]:
    """4-core run with one Micro-Armed Bandit per core (§7.2.3).

    Each core's DUCB uses ``rr_restart_prob`` from Table 6 so that a core
    trapped by inter-core interference eventually re-evaluates all arms.
    """
    num_cores = len(traces)
    ensembles = [EnsemblePrefetcher() for _ in range(num_cores)]
    system = MulticoreSystem(num_cores, hierarchy_config, core_config, ensembles)
    controllers = [
        PrefetchBanditController(
            prefetch_bandit_algorithm(
                seed=seed * num_cores + index,
                multicore=rr_restart,
                params=params,
            ),
            ensembles[index].set_arm,
            params.step_l2_accesses,
            params.selection_latency_cycles,
        )
        for index in range(num_cores)
    ]

    def hook(core_index: int, core: TraceCore) -> None:
        stats = system.hierarchies[core_index].stats
        controllers[core_index].on_record(
            stats.l2_demand_accesses, core.counters()
        )

    system.run(traces, per_record_hook=hook)
    for controller, core, hierarchy in zip(
        controllers, system.cores, system.hierarchies
    ):
        controller.finish(core.counters(), hierarchy.stats.l2_demand_accesses)
    return system.total_ipc(), system
