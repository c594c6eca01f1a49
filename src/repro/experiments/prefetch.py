"""Prefetching experiment runners (single-core and 4-core).

The runners replay a workload trace through the trace-driven core and
hierarchy with a chosen prefetcher configuration:

- :func:`run_fixed_prefetcher` — any named comparator (none, stride,
  mlop, bingo, pythia, ipcp); :func:`run_fixed_arm` — a fixed ensemble arm.
- :func:`run_bandit_prefetch` — the Micro-Armed Bandit driving the ensemble:
  one bandit step per 1,000 L2 demand accesses (Table 6), IPC reward from
  the core's counters, and the conservative 500-cycle selection latency
  (the previously selected arm stays in effect until it elapses, §6.1).
- :func:`best_static_arm` — the per-application oracle of §6.4.
- :func:`run_multicore_fixed` / :func:`run_multicore_bandit` — the 4-core
  experiments of §7.2.3 with per-core bandits and the §4.3 round-robin
  restart.

The three single-core runners each define one ``run(reference, log, ...)``
that builds a fresh stack and replays through :func:`_replay`, and hand it
to :func:`~repro.core_model.sanitizer.run_checked`: a compiled trace
replays through :meth:`TraceCore.run_compiled` (the fused kernel where
the hierarchy allows it), and under ``REPRO_SANITIZE=1`` also through the
object path, the two compared checkpoint by checkpoint and field by
field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bandit.base import MABAlgorithm
from repro.bandit.hardware import PrefetchBanditController
from repro.core_model.multicore import MulticoreSystem
from repro.core_model.sanitizer import (
    _CHECKPOINTS,
    StepRecord,
    run_checked,
    snapshot,
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
from repro.prefetch.ensemble import EnsemblePrefetcher
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.prefetch.ipcp import IPCPPrefetcher
from repro.prefetch.mlop import MLOPPrefetcher
from repro.prefetch.pythia import PythiaPrefetcher
from repro.uncore.dram import DRAMModel
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
    reference: bool,
    log: Optional[List[StepRecord]],
    hook: Optional[Callable[[TraceCore], Optional[Tuple[float, float]]]],
) -> None:
    """Replay ``trace`` on ``core``: a compiled trace through
    :meth:`TraceCore.run_compiled` unless ``reference`` asks for the object
    path, which replays the records through :meth:`TraceCore.run`.

    ``hook(core)`` follows ``run_compiled``'s thresholded record-hook
    protocol, and the object path calls it after every record. Without a
    hook, a ``log`` receives a checkpoint every 1/64 of the trace, so the
    sanitizer compares hook-free replays mid-run as well as at the end.
    """
    if hook is None and log is not None:
        checkpoints = log
        total = len(trace)
        stride = max(1, total // _CHECKPOINTS)
        seen = 0

        def checkpoint(hook_core: TraceCore) -> None:
            nonlocal seen
            seen += 1
            if seen % stride == 0 or seen == total:
                checkpoints.append(snapshot(seen, hook_core))

        hook = checkpoint
    if isinstance(trace, CompiledTrace) and not reference:
        core.run_compiled(trace, record_hook=hook)
        return
    core.run(
        trace.to_records() if isinstance(trace, CompiledTrace) else trace, hook
    )


def _result(
    core: TraceCore,
    trace: TraceInput,
    arm_history: List[int],
    arm_trace: List[Tuple[float, int]],
) -> PrefetchRunResult:
    """Drain the hierarchy and package what the replay produced."""
    hierarchy = core.hierarchy
    hierarchy.finalize()
    return PrefetchRunResult(
        ipc=core.ipc,
        instructions=core.instructions,
        cycles=core.cycles,
        stats=hierarchy.stats,
        arm_history=arm_history,
        arm_trace=arm_trace,
        records=len(trace),
    )


def make_prefetcher(
    name: str, dram_holder: Optional[list] = None
) -> Optional[Prefetcher]:
    """Build a comparator prefetcher by name.

    ``dram_holder`` is a one-element list the runner fills with the
    hierarchy's :class:`~repro.uncore.dram.DRAMModel` after construction;
    Pythia's bandwidth probe reads it. It holds the DRAM model, never the
    hierarchy: the hierarchy holds the prefetcher, so a probe that reached
    the hierarchy would close a reference cycle.
    """
    if name == "none":
        return None
    if name == "stride":
        return IPStridePrefetcher()
    if name == "mlop":
        return MLOPPrefetcher()
    if name == "bingo":
        return BingoPrefetcher()
    if name == "ipcp":
        return IPCPPrefetcher()
    if name == "pythia":
        probe = _make_bandwidth_probe(dram_holder)
        return PythiaPrefetcher(bandwidth_probe=probe)
    raise ValueError(f"unknown prefetcher {name!r}")


def _make_bandwidth_probe(dram_holder: Optional[list]) -> Callable[[], float]:
    def probe() -> float:
        if not dram_holder:
            return 0.0
        dram: DRAMModel = dram_holder[0]
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

    def run(
        reference: bool,
        log: Optional[List[StepRecord]],
        l1: Optional[Prefetcher],
    ) -> PrefetchRunResult:
        # Pythia's bandwidth probe reads the DRAM model through the holder.
        holder: list = []
        prefetcher = make_prefetcher(prefetcher_name, holder)
        hierarchy = CacheHierarchy(
            hierarchy_config, l2_prefetcher=prefetcher, l1_prefetcher=l1
        )
        holder.append(hierarchy.dram)
        core = TraceCore(hierarchy, core_config)
        _replay(core, trace, reference, log, None)
        return _result(core, trace, [], [])

    return run_checked(
        "run_fixed_prefetcher", isinstance(trace, CompiledTrace), run,
        l1_prefetcher,
    )


def run_fixed_arm(
    trace: TraceInput,
    arm: int,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    core_config: CoreConfig = CORE_CONFIG_TABLE4,
) -> PrefetchRunResult:
    """Replay ``trace`` with one ensemble arm held for the whole run."""

    def run(reference: bool, log: Optional[List[StepRecord]]) -> PrefetchRunResult:
        ensemble = EnsemblePrefetcher()
        ensemble.set_arm(arm)
        core = TraceCore(
            CacheHierarchy(hierarchy_config, l2_prefetcher=ensemble),
            core_config,
        )
        _replay(core, trace, reference, log, None)
        return _result(core, trace, [arm], [])

    return run_checked("run_fixed_arm", isinstance(trace, CompiledTrace), run)


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
) -> PrefetchRunResult:
    """Replay ``trace`` with the Micro-Armed Bandit driving the ensemble.

    ``ideal_latency`` removes the 500-cycle selection latency (the
    *BanditIdeal* configuration of Figure 9). ``l1_prefetcher`` optionally
    adds a fixed L1 prefetcher underneath (Figure 12's Stride_Bandit).
    A compiled trace runs the controller as the kernel's thresholded
    record hook; the sanitizer's object-path run calls it on every record,
    and both log each step's arm, counters and estimator state.
    """

    def run(
        reference: bool,
        log: Optional[List[StepRecord]],
        algorithm: Optional[MABAlgorithm],
        l1: Optional[Prefetcher],
    ) -> PrefetchRunResult:
        if algorithm is None:
            algorithm = prefetch_bandit_algorithm(seed=seed, params=params)
        ensemble = EnsemblePrefetcher()
        hierarchy = CacheHierarchy(
            hierarchy_config, l2_prefetcher=ensemble, l1_prefetcher=l1
        )
        core = TraceCore(hierarchy, core_config)
        stats = hierarchy.stats
        controller = PrefetchBanditController(
            algorithm, ensemble.set_arm, params.step_l2_accesses,
            0 if ideal_latency else params.selection_latency_cycles,
            step_log=log,
        )
        _replay(
            core, trace, reference, log,
            lambda hook_core: controller.on_record(
                stats.l2_demand_accesses, hook_core.counters()
            ),
        )
        controller.finish(core.counters(), stats.l2_demand_accesses)
        return _result(
            core, trace, list(algorithm.selection_history),
            controller.arm_trace,
        )

    return run_checked(
        "run_bandit_prefetch", isinstance(trace, CompiledTrace), run,
        algorithm, l1_prefetcher,
    )


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
        holder.append(system.hierarchies[index].dram)
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
