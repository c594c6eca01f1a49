"""One entry point per table/figure of the paper's evaluation.

Every function returns plain data structures (dicts/lists) that the
benchmark harness prints and EXPERIMENTS.md records. All functions take
scale parameters (trace lengths, mix counts, epoch budgets) whose defaults
are sized for minutes-scale Python runs; the paper-scale values are noted in
EXPERIMENTS.md.

Index (see DESIGN.md §4): fig02, fig05, table08, table09, fig07, fig08,
fig09, fig10, fig11, fig12, fig13, fig14, fig15, sec65.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bandit.base import BanditConfig
from repro.bandit.ducb import DUCB
from repro.bandit.heuristics import Single
from repro.bandit.ucb import UCB
from repro.constants import (
    PREFETCH_EXPLORATION_C,
    SMT_EXPLORATION_C,
    SMT_GAMMA,
)
from repro.experiments.configs import (
    ALT_HIERARCHY_CONFIG,
    BASELINE_HIERARCHY_CONFIG,
    PREFETCHER_LINEUP,
    SCALED_GAMMA,
    TABLE8_ALGORITHM_NAMES,
    scaled_prefetch_params,
)
from repro.experiments.matrix import (
    MatrixSpec,
    prefetch_matrix_tasks,
    smt_matrix_tasks,
)
from repro.experiments.prefetch import (
    best_static_arm,
    run_bandit_prefetch,
    run_fixed_prefetcher,
)
from repro.experiments.runner import (
    Task,
    bandit_prefetch_task,
    fixed_prefetcher_task,
    lane_batch_task,
    multicore_bandit_task,
    multicore_fixed_task,
    run_parallel,
    smt_bandit_task,
    smt_static_task,
)
from repro.experiments.smt import (
    DEFAULT_SMT_SCALE,
    SMTScale,
    run_smt_bandit,
    smt_best_static_arm,
)
from repro.hwcost.area_power import (
    estimate_bandit_cost,
    relative_overheads,
    storage_comparison,
)
from repro.prefetch.ensemble import TABLE7_ARMS
from repro.prefetch.pythia import PythiaPrefetcher
from repro.smt.pg_policy import (
    ALL_PG_POLICIES,
    BANDIT_PG_ARMS,
    CHOI_POLICY,
    ICOUNT_POLICY,
    PGPolicy,
)
from repro.uncore.hierarchy import HierarchyConfig
from repro.util.stats import Summary, geometric_mean, summarize_ratios
from repro.workloads.smt import smt_eval_mixes, smt_tune_mixes
from repro.workloads.suites import (
    ALL_SUITES,
    WorkloadSpec,
    spec_by_name,
    tune_specs,
)

#: Default trace length (memory accesses) for prefetching experiments.
DEFAULT_TRACE_LENGTH = 30_000

# PREFETCHER_LINEUP / TARGET_BANDIT_STEPS / SCALED_GAMMA moved to
# repro.experiments.configs (the matrix engine needs them without importing
# this module); re-imported above for back-compat.


def _num_arms() -> int:
    return len(TABLE7_ARMS)


# =============================================================== Figure 2


def fig02_pythia_homogeneity(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    workloads: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Dict[str, Tuple[float, float]]:
    """Frequency of Pythia's top-2 actions per SPEC-like workload.

    Returns ``{workload: (top1_fraction, top2_fraction)}`` plus an
    ``"average"`` entry — the paper reports ~60 % / ~15 %.
    """
    if workloads is None:
        workloads = [spec.name for spec in tune_specs()]
    result: Dict[str, Tuple[float, float]] = {}
    top1_sum = 0.0
    top2_sum = 0.0
    for name in workloads:
        trace = spec_by_name(name).trace(trace_length, seed=seed)
        pythia = PythiaPrefetcher()
        for record in trace:
            # Feed the L1-miss stream approximation: Pythia trains on all
            # block-granular demand activity here, as a profiling proxy.
            pythia.observe(record.pc, record.address >> 6, 0.0, False)
        top1, top2 = pythia.top_action_fractions(2)
        result[name] = (top1, top2)
        top1_sum += top1
        top2_sum += top2
    result["average"] = (top1_sum / len(workloads), top2_sum / len(workloads))
    return result


# =============================================================== Figure 5


def fig05_pg_policy_range(
    num_mixes: int = 6,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    policies: Sequence[PGPolicy] = ALL_PG_POLICIES,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Best/worst PG policy vs Choi per mix (§3.3's motivation figure).

    Returns one record per mix with the best/worst relative IPC and the
    best policy's mnemonic.
    """
    mixes = smt_tune_mixes()[:num_mixes]
    tasks: List[Task] = []
    for mix in mixes:
        names = (mix[0].name, mix[1].name)
        tasks.append(Task(
            smt_static_task,
            dict(thread_names=names, policy_mnemonic=CHOI_POLICY.mnemonic,
                 scale=scale, seed=seed),
            label=f"fig05:{names[0]}-{names[1]}:choi",
        ))
        tasks.extend(
            Task(
                smt_static_task,
                dict(thread_names=names, policy_mnemonic=policy.mnemonic,
                     scale=scale, seed=seed),
                label=f"fig05:{names[0]}-{names[1]}:{policy.mnemonic}",
            )
            for policy in policies
        )
    task_results = iter(run_parallel(tasks))
    results: List[Dict[str, object]] = []
    for mix in mixes:
        choi_ipc = next(task_results).ipc
        best_name = CHOI_POLICY.mnemonic
        best_ipc = -1.0
        worst_ipc = float("inf")
        for policy in policies:
            ipc = next(task_results).ipc
            if ipc > best_ipc:
                best_ipc = ipc
                best_name = policy.mnemonic
            worst_ipc = min(worst_ipc, ipc)
        results.append(
            {
                "mix": f"{mix[0].name}-{mix[1].name}",
                "best_policy": best_name,
                "best_vs_choi": best_ipc / choi_ipc,
                "worst_vs_choi": worst_ipc / choi_ipc,
            }
        )
    return results


# =============================================================== Table 8


def table08_prefetch_tuneset(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    seed: int = 0,
) -> Dict[str, Summary]:
    """min/max/gmean IPC as % of the best static arm (prefetching tune set)."""
    if workloads is None:
        workloads = tune_specs()
    algorithm_names = TABLE8_ALGORITHM_NAMES
    workload_names = tuple(spec.name for spec in workloads)
    arm_scenarios = tuple(f"arm{arm}" for arm in range(_num_arms()))
    spec_matrix = MatrixSpec.build(axes={
        "workload": workload_names,
        "scenario": arm_scenarios + ("pythia",) + algorithm_names,
    })
    bases = run_parallel(prefetch_matrix_tasks(
        MatrixSpec.build(axes={"workload": workload_names,
                               "scenario": ("none",)}),
        trace_length=trace_length,
        seed=seed,
        label_prefix="table08",
    ))
    params_by_workload = {
        name: scaled_prefetch_params(base.stats.l2_demand_accesses)
        for name, base in zip(workload_names, bases)
    }

    def _label(point) -> str:
        workload, scenario = point["workload"], point["scenario"]
        if str(scenario).startswith("arm"):
            # best_static_arm_tasks' historical label scheme (unprefixed).
            return f"{workload}:{scenario}"
        return f"table08:{workload}:{scenario}"

    tasks = prefetch_matrix_tasks(
        spec_matrix,
        trace_length=trace_length,
        seed=seed,
        params_for=lambda point: params_by_workload[str(point["workload"])],
        label_for=_label,
        # Arm replays historically pin the Table 4 hierarchy explicitly;
        # the other scenarios rely on the worker default.
        hierarchy_for=lambda point: (
            BASELINE_HIERARCHY_CONFIG
            if str(point["scenario"]).startswith("arm") else None
        ),
        algorithm_gamma=SCALED_GAMMA,
    )
    results = iter(run_parallel(tasks))
    ratios: Dict[str, List[float]] = {
        name: [] for name in ("Pythia",) + algorithm_names
    }
    for spec in workloads:
        per_arm = [next(results).ipc for _ in range(_num_arms())]
        oracle = max(per_arm)
        ratios["Pythia"].append(next(results).ipc / oracle)
        for name in algorithm_names:
            ratios[name].append(next(results).ipc / oracle)
    return {
        name: summarize_ratios(values).as_percent()
        for name, values in ratios.items()
    }


# =============================================================== Table 9


def table09_smt_tuneset(
    num_mixes: int = 10,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    seed: int = 0,
) -> Dict[str, Summary]:
    """min/max/gmean IPC as % of the best static arm (SMT tune set)."""
    mixes = smt_tune_mixes()[:num_mixes]
    algorithm_names = TABLE8_ALGORITHM_NAMES
    mix_labels = tuple(f"{mix[0].name}-{mix[1].name}" for mix in mixes)
    arm_scenarios = tuple(f"arm{i}" for i in range(len(BANDIT_PG_ARMS)))
    tasks = smt_matrix_tasks(
        MatrixSpec.build(axes={
            "workload": mix_labels,
            "scenario": arm_scenarios + ("choi",) + algorithm_names,
        }),
        scale=scale,
        seed=seed,
        label_prefix="table09",
    )
    results = iter(run_parallel(tasks))
    ratios: Dict[str, List[float]] = {
        name: [] for name in ("Choi",) + algorithm_names
    }
    for mix in mixes:
        oracle = max(next(results).ipc for _ in BANDIT_PG_ARMS)
        ratios["Choi"].append(next(results).ipc / oracle)
        for name in algorithm_names:
            ratios[name].append(next(results).ipc / oracle)
    return {
        name: summarize_ratios(values).as_percent()
        for name, values in ratios.items()
    }


# =============================================================== Figure 7


def fig07_exploration_traces(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    prefetch_workloads: Sequence[str] = ("cactus06", "mcf06"),
    smt_mixes: Sequence[Tuple[str, str]] = (("gcc", "lbm"), ("cactuBSSN", "lbm")),
    scale: SMTScale = DEFAULT_SMT_SCALE,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Arm-exploration traces for Best Static / Single / UCB / DUCB.

    Returns ``{scenario: {algorithm: {"ipc": float, "arms": [...]}}}`` where
    ``arms`` is the arm index over time (per bandit step).
    """
    from repro.workloads.smt import thread_profile

    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    arms = _num_arms()
    for name in prefetch_workloads:
        trace = spec_by_name(name).trace(trace_length, seed=seed)
        base = run_fixed_prefetcher(trace, "none")
        params = scaled_prefetch_params(base.stats.l2_demand_accesses)
        best_arm, per_arm = best_static_arm(trace)
        scenario: Dict[str, Dict[str, object]] = {
            "BestStatic": {"ipc": per_arm[best_arm], "arms": [best_arm]},
        }
        for alg_name, algorithm in (
            ("Single", Single(BanditConfig(num_arms=arms, seed=seed))),
            ("UCB", UCB(BanditConfig(num_arms=arms,
                                     exploration_c=PREFETCH_EXPLORATION_C,
                                     seed=seed))),
            ("DUCB", DUCB(BanditConfig(num_arms=arms, gamma=SCALED_GAMMA,
                                       exploration_c=PREFETCH_EXPLORATION_C,
                                       seed=seed))),
        ):
            result = run_bandit_prefetch(
                trace, algorithm=algorithm, params=params, seed=seed
            )
            scenario[alg_name] = {"ipc": result.ipc, "arms": result.arm_history}
        out[f"prefetch:{name}"] = scenario

    smt_arms = len(BANDIT_PG_ARMS)
    for first, second in smt_mixes:
        mix = (thread_profile(first), thread_profile(second))
        best_index, per_arm = smt_best_static_arm(mix, scale=scale, seed=seed)
        scenario = {
            "BestStatic": {"ipc": per_arm[best_index], "arms": [best_index]},
        }
        for alg_name, algorithm in (
            ("Single", Single(BanditConfig(num_arms=smt_arms, seed=seed))),
            ("UCB", UCB(BanditConfig(num_arms=smt_arms,
                                     exploration_c=SMT_EXPLORATION_C,
                                     seed=seed))),
            ("DUCB", DUCB(BanditConfig(num_arms=smt_arms, gamma=SMT_GAMMA,
                                       exploration_c=SMT_EXPLORATION_C,
                                       seed=seed))),
        ):
            result = run_smt_bandit(mix, scale, algorithm=algorithm, seed=seed)
            scenario[alg_name] = {"ipc": result.ipc, "arms": result.arm_history}
        out[f"smt:{first}-{second}"] = scenario
    return out


# =============================================================== Figures 8/11


def fig08_singlecore(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    suites: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Per-suite gmean IPC (normalized to no-prefetching) per prefetcher.

    Returns ``{suite: {prefetcher: normalized_ipc}}`` with an ``"all"``
    entry for the cross-suite geometric mean. Figure 11 is the same
    experiment with :data:`ALT_HIERARCHY_CONFIG`.
    """
    if suites is None:
        suites = list(ALL_SUITES)
    lineup = list(PREFETCHER_LINEUP) + ["bandit"]
    members = [(suite, spec) for suite in suites for spec in ALL_SUITES[suite]]
    member_names = tuple(spec.name for _, spec in members)
    spec_matrix = MatrixSpec.build(
        axes={"workload": member_names, "scenario": tuple(lineup)},
    )
    base_tasks = prefetch_matrix_tasks(
        MatrixSpec.build(axes={"workload": member_names,
                               "scenario": ("none",)}),
        trace_length=trace_length,
        seed=seed,
        hierarchy_for=lambda point: hierarchy_config,
        label_prefix="fig08",
    )
    bases = run_parallel(base_tasks)
    params_by_workload = {
        name: scaled_prefetch_params(base.stats.l2_demand_accesses)
        for name, base in zip(member_names, bases)
    }
    tasks = prefetch_matrix_tasks(
        spec_matrix,
        trace_length=trace_length,
        seed=seed,
        params_for=lambda point: params_by_workload[str(point["workload"])],
        hierarchy_for=lambda point: hierarchy_config,
        label_prefix="fig08",
    )
    results = iter(run_parallel(tasks))
    per_suite: Dict[str, Dict[str, List[float]]] = {
        suite: {name: [] for name in lineup} for suite in suites
    }
    for (suite, _), base in zip(members, bases):
        for name in lineup:
            per_suite[suite][name].append(next(results).ipc / base.ipc)
    result: Dict[str, Dict[str, float]] = {}
    all_values: Dict[str, List[float]] = {name: [] for name in lineup}
    for suite in suites:
        result[suite] = {}
        for name in lineup:
            values = per_suite[suite][name]
            result[suite][name] = geometric_mean(values)
            all_values[name].extend(values)
    result["all"] = {
        name: geometric_mean(values) for name, values in all_values.items()
    }
    return result


def fig11_alt_hierarchy(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    suites: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Figure 8 repeated with L2 = 1 MB and LLC = 1.5 MB/core (§7.2.2)."""
    return fig08_singlecore(trace_length, ALT_HIERARCHY_CONFIG, suites, seed)


# =============================================================== Figure 9


def fig09_breakdown(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """LLC misses + timely/late/wrong prefetches, normalized to NoPrefetch.

    Returns ``{prefetcher: {llc_misses, timely, late, wrong}}`` (all
    normalized to the no-prefetch LLC miss count), including BanditIdeal
    (zero selection latency).
    """
    if workloads is None:
        workloads = tune_specs()
    lineup = list(PREFETCHER_LINEUP) + ["bandit", "bandit_ideal"]
    sums: Dict[str, Dict[str, float]] = {
        name: {"llc_misses": 0.0, "timely": 0.0, "late": 0.0, "wrong": 0.0}
        for name in lineup
    }
    bases = run_parallel([
        Task(
            fixed_prefetcher_task,
            dict(spec_name=spec.name, trace_length=trace_length, seed=seed),
            label=f"fig09:{spec.name}:none",
        )
        for spec in workloads
    ])
    baseline_misses = 0.0
    tasks: List[Task] = []
    for spec, base in zip(workloads, bases):
        params = scaled_prefetch_params(base.stats.l2_demand_accesses)
        baseline_misses += base.stats.llc_demand_misses
        for name in lineup:
            if name == "bandit":
                task = Task(
                    bandit_prefetch_task,
                    dict(spec_name=spec.name, trace_length=trace_length,
                         params=params, seed=seed),
                    label=f"fig09:{spec.name}:bandit",
                )
            elif name == "bandit_ideal":
                task = Task(
                    bandit_prefetch_task,
                    dict(spec_name=spec.name, trace_length=trace_length,
                         params=params, seed=seed, ideal_latency=True),
                    label=f"fig09:{spec.name}:bandit_ideal",
                )
            else:
                task = Task(
                    fixed_prefetcher_task,
                    dict(spec_name=spec.name, trace_length=trace_length,
                         seed=seed, prefetcher_name=name),
                    label=f"fig09:{spec.name}:{name}",
                )
            tasks.append(task)
    results = iter(run_parallel(tasks))
    for spec in workloads:
        for name in lineup:
            stats = next(results).stats
            sums[name]["llc_misses"] += stats.llc_demand_misses
            sums[name]["timely"] += stats.prefetch.timely
            sums[name]["late"] += stats.prefetch.late
            sums[name]["wrong"] += stats.prefetch.wrong
    if baseline_misses == 0:
        raise RuntimeError("no-prefetch baseline produced zero LLC misses")
    return {
        name: {key: value / baseline_misses for key, value in metrics.items()}
        for name, metrics in sums.items()
    }


# =============================================================== Figure 10


def fig10_bandwidth_sweep(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    mtps_values: Sequence[float] = (150.0, 600.0, 2400.0, 9600.0),
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    seed: int = 0,
) -> Dict[float, Dict[str, float]]:
    """Pythia vs Bandit across DRAM bandwidth points (§7.2.1, Figure 10).

    Returns ``{mtps: {"pythia": gmean_norm_ipc, "bandit": gmean_norm_ipc}}``
    normalized to no-prefetching at the same bandwidth.
    """
    from dataclasses import replace as dc_replace

    if workloads is None:
        workloads = tune_specs()
    workload_names = tuple(spec.name for spec in workloads)
    points = [
        (dc_replace(BASELINE_HIERARCHY_CONFIG, dram_mtps=mtps), spec)
        for mtps in mtps_values
        for spec in workloads
    ]

    def _hierarchy(point) -> HierarchyConfig:
        return dc_replace(
            BASELINE_HIERARCHY_CONFIG, dram_mtps=float(point["dram_mtps"])
        )

    bases = run_parallel(prefetch_matrix_tasks(
        MatrixSpec.build(axes={
            "dram_mtps": tuple(mtps_values),
            "workload": workload_names,
            "scenario": ("none",),
        }),
        trace_length=trace_length,
        seed=seed,
        hierarchy_for=_hierarchy,
        label_prefix="fig10",
    ))
    params_by_point = {
        (config.dram_mtps, spec.name):
            scaled_prefetch_params(base.stats.l2_demand_accesses)
        for (config, spec), base in zip(points, bases)
    }
    tasks = prefetch_matrix_tasks(
        MatrixSpec.build(axes={
            "dram_mtps": tuple(mtps_values),
            "workload": workload_names,
            "scenario": ("pythia", "bandit"),
        }),
        trace_length=trace_length,
        seed=seed,
        params_for=lambda point: params_by_point[
            (float(point["dram_mtps"]), str(point["workload"]))
        ],
        hierarchy_for=_hierarchy,
        label_prefix="fig10",
    )
    results = iter(run_parallel(tasks))
    ratios: Dict[float, Dict[str, List[float]]] = {
        mtps: {"pythia": [], "bandit": []} for mtps in mtps_values
    }
    for (config, _), base in zip(points, bases):
        point = ratios[config.dram_mtps]
        point["pythia"].append(next(results).ipc / base.ipc)
        point["bandit"].append(next(results).ipc / base.ipc)
    return {
        mtps: {name: geometric_mean(values) for name, values in point.items()}
        for mtps, point in ratios.items()
    }


# ==================================================== replication sweeps


def _replication_lanes(replicates: int, seed: int):
    """Lane list for one replication sweep member: 11 arms + R bandit seeds."""
    from repro.core_model.lane_kernel import LaneSpec

    return tuple(
        [LaneSpec("arm", arm=arm) for arm in range(_num_arms())]
        + [LaneSpec("bandit", seed=seed + r) for r in range(replicates)]
    )


def _replication_member(
    base: object, payload: Dict[str, object]
) -> Dict[str, object]:
    """Per-workload summary of one lane-batch replication payload."""
    lane_results = payload["results"]
    num_arms = _num_arms()
    base_ipc = base.ipc
    arm_norms = {
        arm: lane_results[arm].ipc / base_ipc for arm in range(num_arms)
    }
    best_arm = max(arm_norms, key=arm_norms.__getitem__)
    bandit_norms = [
        result.ipc / base_ipc for result in lane_results[num_arms:]
    ]
    return {
        "best_static_arm": best_arm,
        "best_static_norm": arm_norms[best_arm],
        "bandit_norms": bandit_norms,
        "bandit_mean": sum(bandit_norms) / len(bandit_norms),
        "bandit_min": min(bandit_norms),
        "bandit_max": max(bandit_norms),
    }


def fig08_replication_sweep(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    replicates: int = 5,
    hierarchy_config: HierarchyConfig = BASELINE_HIERARCHY_CONFIG,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    seed: int = 0,
) -> Dict[str, Dict[str, object]]:
    """Seed-replication study behind Figure 8's bandit bars.

    For every workload, the full 11-arm static fan-out plus ``replicates``
    independently seeded bandit episodes replay as *one* batched lane task
    (:func:`repro.experiments.runner.lane_batch_task`): a single kernel
    invocation instead of ``11 + replicates`` pool tasks. Wide replication
    sweeps (``11 + replicates >= 128`` lanes) take the kernel's
    array-resident memory side, narrow ones its dict side — bit-identical
    either way, with the chosen side recorded per task in the run
    manifest. Returns, per workload, the best static arm and the bandit's
    normalized-IPC spread across seeds, plus an ``"all"`` entry with
    cross-workload gmeans.
    """
    if workloads is None:
        workloads = tune_specs()
    bases = run_parallel([
        Task(
            fixed_prefetcher_task,
            dict(spec_name=spec.name, trace_length=trace_length, seed=seed,
                 hierarchy_config=hierarchy_config),
            label=f"fig08rep:{spec.name}:none",
        )
        for spec in workloads
    ])
    tasks: List[Task] = []
    for spec, base in zip(workloads, bases):
        params = scaled_prefetch_params(base.stats.l2_demand_accesses)
        tasks.append(Task(
            lane_batch_task,
            dict(spec_name=spec.name, trace_length=trace_length,
                 lanes=_replication_lanes(replicates, seed), params=params,
                 seed=seed, hierarchy_config=hierarchy_config),
            label=f"fig08rep:{spec.name}:lanes",
        ))
    payloads = run_parallel(tasks)
    result: Dict[str, Dict[str, object]] = {}
    best_norms: List[float] = []
    bandit_means: List[float] = []
    for spec, base, payload in zip(workloads, bases, payloads):
        member = _replication_member(base, payload)
        result[spec.name] = member
        best_norms.append(member["best_static_norm"])
        bandit_means.append(member["bandit_mean"])
    result["all"] = {
        "best_static_gmean": geometric_mean(best_norms),
        "bandit_gmean": geometric_mean(bandit_means),
    }
    return result


def fig10_replication_sweep(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    mtps_values: Sequence[float] = (150.0, 600.0, 2400.0, 9600.0),
    replicates: int = 5,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    seed: int = 0,
) -> Dict[float, Dict[str, object]]:
    """Seed-replication study behind Figure 10's bandwidth sweep.

    At each DRAM bandwidth point, every workload's 11 static arms and
    ``replicates`` bandit seeds replay as one batched lane task. Returns
    ``{mtps: {best_static_gmean, bandit_gmean, bandit_min, bandit_max}}``
    (all IPC normalized to no-prefetching at the same bandwidth).
    """
    from dataclasses import replace as dc_replace

    if workloads is None:
        workloads = tune_specs()
    points = [
        (dc_replace(BASELINE_HIERARCHY_CONFIG, dram_mtps=mtps), spec)
        for mtps in mtps_values
        for spec in workloads
    ]
    bases = run_parallel([
        Task(
            fixed_prefetcher_task,
            dict(spec_name=spec.name, trace_length=trace_length, seed=seed,
                 hierarchy_config=config),
            label=f"fig10rep:{config.dram_mtps:g}:{spec.name}:none",
        )
        for config, spec in points
    ])
    tasks: List[Task] = []
    for (config, spec), base in zip(points, bases):
        params = scaled_prefetch_params(base.stats.l2_demand_accesses)
        tasks.append(Task(
            lane_batch_task,
            dict(spec_name=spec.name, trace_length=trace_length,
                 lanes=_replication_lanes(replicates, seed), params=params,
                 seed=seed, hierarchy_config=config),
            label=f"fig10rep:{config.dram_mtps:g}:{spec.name}:lanes",
        ))
    payloads = run_parallel(tasks)
    sweeps: Dict[float, Dict[str, List[float]]] = {
        mtps: {"best": [], "means": [], "mins": [], "maxes": []}
        for mtps in mtps_values
    }
    for (config, _), base, payload in zip(points, bases, payloads):
        member = _replication_member(base, payload)
        point = sweeps[config.dram_mtps]
        point["best"].append(member["best_static_norm"])
        point["means"].append(member["bandit_mean"])
        point["mins"].append(member["bandit_min"])
        point["maxes"].append(member["bandit_max"])
    return {
        mtps: {
            "best_static_gmean": geometric_mean(point["best"]),
            "bandit_gmean": geometric_mean(point["means"]),
            "bandit_min": min(point["mins"]),
            "bandit_max": max(point["maxes"]),
        }
        for mtps, point in sweeps.items()
    }


# =============================================================== Figure 12


def fig12_multilevel(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    seed: int = 0,
) -> Dict[str, float]:
    """Multi-level combinations vs no-prefetching (§7.2.2, Figure 12).

    Returns gmean normalized IPC for Stride_Stride, IPCP, Stride_Pythia,
    and Stride_Bandit (L1 prefetcher _ L2 prefetcher).
    """
    if workloads is None:
        workloads = tune_specs()
    combos = (
        ("stride_stride", "stride", "stride2"),
        ("ipcp", "ipcp", "ipcp2"),
        ("stride_pythia", "pythia", "stride2"),
        ("stride_bandit", None, "stride2"),
    )
    bases = run_parallel([
        Task(
            fixed_prefetcher_task,
            dict(spec_name=spec.name, trace_length=trace_length, seed=seed),
            label=f"fig12:{spec.name}:none",
        )
        for spec in workloads
    ])
    tasks: List[Task] = []
    for spec, base in zip(workloads, bases):
        params = scaled_prefetch_params(base.stats.l2_demand_accesses)
        for combo, l2_name, l1_kind in combos:
            if l2_name is None:
                task = Task(
                    bandit_prefetch_task,
                    dict(spec_name=spec.name, trace_length=trace_length,
                         params=params, seed=seed, l1_kind=l1_kind),
                    label=f"fig12:{spec.name}:{combo}",
                )
            else:
                task = Task(
                    fixed_prefetcher_task,
                    dict(spec_name=spec.name, trace_length=trace_length,
                         seed=seed, prefetcher_name=l2_name, l1_kind=l1_kind),
                    label=f"fig12:{spec.name}:{combo}",
                )
            tasks.append(task)
    results = iter(run_parallel(tasks))
    ratios: Dict[str, List[float]] = {combo: [] for combo, _, _ in combos}
    for spec, base in zip(workloads, bases):
        for combo, _, _ in combos:
            ratios[combo].append(next(results).ipc / base.ipc)
    return {name: geometric_mean(values) for name, values in ratios.items()}


# =============================================================== Figure 13


def fig13_smt_bandit_vs_choi(
    num_mixes: int = 24,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    seed: int = 0,
) -> Dict[str, object]:
    """Bandit/Choi IPC ratios over the eval mixes, sorted ascending.

    Returns the sorted ratio list, the geometric means vs Choi and vs
    plain ICount, and counts of mixes beyond ±4 %.
    """
    mixes = smt_eval_mixes()[:num_mixes]
    tasks: List[Task] = []
    for mix in mixes:
        names = (mix[0].name, mix[1].name)
        mix_label = f"{names[0]}-{names[1]}"
        tasks.append(Task(
            smt_static_task,
            dict(thread_names=names, policy_mnemonic=CHOI_POLICY.mnemonic,
                 scale=scale, seed=seed),
            label=f"fig13:{mix_label}:choi",
        ))
        tasks.append(Task(
            smt_static_task,
            dict(thread_names=names, policy_mnemonic=ICOUNT_POLICY.mnemonic,
                 scale=scale, seed=seed),
            label=f"fig13:{mix_label}:icount",
        ))
        tasks.append(Task(
            smt_bandit_task,
            dict(thread_names=names, scale=scale, seed=seed),
            label=f"fig13:{mix_label}:bandit",
        ))
    results = iter(run_parallel(tasks))
    ratios_choi: List[float] = []
    ratios_icount: List[float] = []
    for mix in mixes:
        choi = next(results).ipc
        icount = next(results).ipc
        bandit = next(results).ipc
        ratios_choi.append(bandit / choi)
        ratios_icount.append(bandit / icount)
    ratios_sorted = sorted(ratios_choi)
    return {
        "ratios_sorted": ratios_sorted,
        "gmean_vs_choi": geometric_mean(ratios_choi),
        "gmean_vs_icount": geometric_mean(ratios_icount),
        "wins_over_4pct": sum(1 for ratio in ratios_choi if ratio > 1.04),
        "losses_over_4pct": sum(1 for ratio in ratios_choi if ratio < 0.96),
    }


# =============================================================== Figure 14


def fig14_fourcore(
    trace_length: int = 12_000,
    max_mixes: int = 8,
    seed: int = 0,
    gap_scale: float = 3.0,
) -> Dict[str, float]:
    """4-core homogeneous mixes: gmean total IPC normalized to no-prefetch.

    ``gap_scale`` lowers per-core memory intensity to SPEC-rate levels so
    the single 2400-MTPS channel is contended but not hopelessly saturated
    (see WorkloadSpec.trace).
    """
    specs = tune_specs()[:max_mixes]
    lineup = list(PREFETCHER_LINEUP) + ["bandit"]
    seeds = [seed + core for core in range(4)]
    bases = run_parallel([
        Task(
            multicore_fixed_task,
            dict(spec_names=[spec.name] * 4, trace_length=trace_length,
                 seeds=seeds, gap_scale=gap_scale),
            label=f"fig14:{spec.name}:none",
        )
        for spec in specs
    ])
    tasks: List[Task] = []
    for spec, base in zip(specs, bases):
        mean_l2 = sum(base["l2_demand_accesses"]) // 4
        params = scaled_prefetch_params(mean_l2)
        tasks.extend(
            Task(
                multicore_fixed_task,
                dict(spec_names=[spec.name] * 4, trace_length=trace_length,
                     seeds=seeds, prefetcher_name=name, gap_scale=gap_scale),
                label=f"fig14:{spec.name}:{name}",
            )
            for name in PREFETCHER_LINEUP
        )
        tasks.append(Task(
            multicore_bandit_task,
            dict(spec_names=[spec.name] * 4, trace_length=trace_length,
                 seeds=seeds, params=params, seed=seed, gap_scale=gap_scale),
            label=f"fig14:{spec.name}:bandit",
        ))
    results = iter(run_parallel(tasks))
    ratios: Dict[str, List[float]] = {name: [] for name in lineup}
    for spec, base in zip(specs, bases):
        for name in lineup:
            ratios[name].append(next(results)["total_ipc"] / base["total_ipc"])
    return {name: geometric_mean(values) for name, values in ratios.items()}


# =============================================================== Figure 15


def fig15_rename_activity(
    num_mixes: int = 12,
    scale: SMTScale = DEFAULT_SMT_SCALE,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Average rename-stage cycle breakdown: Bandit vs Choi (Figure 15)."""
    mixes = smt_eval_mixes()[:num_mixes]
    keys = ("rob_full", "iq_full", "lq_full", "sq_full", "rf_full",
            "stalled_any", "idle", "running")
    sums = {"Choi": dict.fromkeys(keys, 0.0), "Bandit": dict.fromkeys(keys, 0.0)}
    tasks: List[Task] = []
    for mix in mixes:
        names = (mix[0].name, mix[1].name)
        mix_label = f"{names[0]}-{names[1]}"
        tasks.append(Task(
            smt_static_task,
            dict(thread_names=names, policy_mnemonic=CHOI_POLICY.mnemonic,
                 scale=scale, seed=seed),
            label=f"fig15:{mix_label}:choi",
        ))
        tasks.append(Task(
            smt_bandit_task,
            dict(thread_names=names, scale=scale, seed=seed),
            label=f"fig15:{mix_label}:bandit",
        ))
    results = iter(run_parallel(tasks))
    for mix in mixes:
        choi = next(results)
        bandit = next(results)
        for key, value in choi.rename.fractions().items():
            sums["Choi"][key] += value
        for key, value in bandit.rename.fractions().items():
            sums["Bandit"][key] += value
    count = len(mixes)
    return {
        name: {key: value / count for key, value in metrics.items()}
        for name, metrics in sums.items()
    }


# =============================================================== §6.5


def sec65_area_power() -> Dict[str, object]:
    """Bandit storage/area/power and relative overheads (§6.5)."""
    estimate = estimate_bandit_cost(num_arms=_num_arms())
    overheads = relative_overheads(estimate)
    return {
        "storage_bytes": estimate.storage_bytes,
        "area_mm2": estimate.area_mm2,
        "power_mw": estimate.power_mw,
        "area_fraction_of_icelake": overheads["area_fraction"],
        "power_fraction_of_icelake": overheads["power_fraction"],
        "storage_comparison": storage_comparison(num_arms=_num_arms()),
    }
